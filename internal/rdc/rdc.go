// Package rdc is a software Reliable Datagram Channel over InfiniBand UD
// queue pairs — an exploration of the paper's future-work direction
// ("flow control issues in using other InfiniBand transport services such
// as Reliable Datagram").
//
// UD gives connectionless datagrams with one shared receive pool per
// endpoint, so buffer memory is O(pool) instead of the Reliable
// Connection design's O(peers x pre-post). What UD does not give is
// reliability: a datagram that finds no posted descriptor vanishes. This
// package rebuilds go-back-N reliability in software — per-peer sequence
// numbers, a bounded send window, cumulative acknowledgements (delayed,
// so reverse traffic can carry them implicitly) and timeout-driven
// retransmission.
//
// Each Endpoint drives itself from completion-queue notifications, like
// a kernel completion handler — no goroutine, no parked process;
// applications just call Send and receive deliveries through the
// OnMessage callback, in order per peer.
package rdc

import (
	"encoding/binary"
	"fmt"

	"ibflow/internal/ib"
	"ibflow/internal/mem"
	"ibflow/internal/sim"
)

// Config tunes the reliability layer.
type Config struct {
	// Pool is the shared receive descriptor count (the entire buffer
	// footprint of the endpoint, regardless of peer count).
	Pool int
	// Window is the per-peer limit of unacknowledged datagrams.
	Window int
	// RetransmitTimeout restarts a peer's window after silence.
	RetransmitTimeout sim.Time
	// AckDelay batches cumulative acknowledgements.
	AckDelay sim.Time
	// SWRecv is the software cost charged per delivered message.
	SWRecv sim.Time
}

// DefaultConfig returns working reliability parameters.
func DefaultConfig() Config {
	return Config{
		Pool:              32,
		Window:            8,
		RetransmitTimeout: 200 * sim.Microsecond,
		AckDelay:          20 * sim.Microsecond,
		SWRecv:            1500 * sim.Nanosecond,
	}
}

// header layout (12 bytes): type(1) pad(1) src(2) seq(4) ack(4).
const hdrSize = 12

const (
	pktData uint8 = 1
	pktAck  uint8 = 2
)

// MaxPayload is the largest message an endpoint can send.
const MaxPayload = ib.MaxUDPayload - hdrSize

// Stats counts endpoint-level reliability events.
type Stats struct {
	Sent        uint64
	Delivered   uint64
	Retransmits uint64
	AcksSent    uint64
	DupsDropped uint64 // duplicates and out-of-order arrivals discarded
	PoolBytes   int    // receive buffer memory footprint
}

// peerState tracks one remote endpoint.
type peerState struct {
	// sender side
	outq     [][]byte // encoded, unacked first, then unsent
	sentUpTo int      // prefix of outq currently in flight
	baseSeq  uint32   // seq of outq[0]
	nextSeq  uint32
	rtoTimer *sim.Timer

	// receiver side
	expected  uint32
	lastAcked uint32
	ackOwed   bool
	ackTimer  *sim.Timer
}

// Endpoint is one rank's reliable datagram service.
type Endpoint struct {
	eng     *sim.Engine
	cfg     Config
	node    int
	qp      *ib.UDQP
	cq      *ib.CQ
	peers   []*peerState
	handler func(src int, data []byte)
	stats   Stats
	bufs    map[uint64][]byte
	wrid    uint64

	// pend is an arrived datagram whose software-receive charge is
	// elapsing; the next OnEvent delivers it before draining the CQ.
	pend []byte

	// pool recycles the MaxUDPayload buffers of posted receives and queued
	// packets, so the steady-state datagram path allocates nothing;
	// deliverBuf is the single staging buffer handed to the OnMessage
	// callback, reused across deliveries.
	pool       *mem.BufPool
	deliverBuf []byte
}

// New creates an endpoint on hca able to talk to nPeers ranks (rank ==
// node in this substrate). OnMessage runs in simulation context and must
// not block; data is valid only for the duration of the callback (the
// endpoint reuses the delivery buffer) — copy it out if retained.
func New(eng *sim.Engine, hca *ib.HCA, cfg Config, nPeers int, onMessage func(src int, data []byte)) *Endpoint {
	if cfg.Pool < 1 || cfg.Window < 1 {
		panic("rdc: pool and window must be positive")
	}
	cq := hca.NewCQ()
	e := &Endpoint{
		eng:        eng,
		cfg:        cfg,
		node:       hca.Node(),
		qp:         hca.NewUDQP(cq, cq),
		cq:         cq,
		peers:      make([]*peerState, nPeers),
		handler:    onMessage,
		bufs:       make(map[uint64][]byte),
		pool:       mem.NewBufPool(ib.MaxUDPayload),
		deliverBuf: make([]byte, MaxPayload),
	}
	for i := range e.peers {
		e.peers[i] = &peerState{}
	}
	for i := 0; i < cfg.Pool; i++ {
		e.postRecv()
	}
	e.stats.PoolBytes = cfg.Pool * ib.MaxUDPayload
	cq.SetNotify(e)
	cq.Arm()
	return e
}

// Stats returns a copy of the endpoint counters.
func (e *Endpoint) Stats() Stats { return e.stats }

// UDStats exposes the transport-level drop counters.
func (e *Endpoint) UDStats() ib.UDStats { return e.qp.Stats() }

func (e *Endpoint) postRecv() {
	e.wrid++
	buf := e.pool.Get()
	e.bufs[e.wrid] = buf
	e.qp.PostRecv(e.wrid, buf)
}

// Send queues data for reliable in-order delivery to dst. The data is
// copied immediately.
func (e *Endpoint) Send(dst int, data []byte) {
	if len(data) > MaxPayload {
		panic(fmt.Sprintf("rdc: message of %d bytes exceeds the %d-byte limit",
			len(data), MaxPayload))
	}
	p := e.peers[dst]
	pkt := e.pool.Get()[:hdrSize+len(data)]
	pkt[0], pkt[1] = pktData, 0 // recycled buffers carry stale bytes: write the full header
	binary.LittleEndian.PutUint16(pkt[2:], uint16(e.node))
	binary.LittleEndian.PutUint32(pkt[4:], p.nextSeq)
	p.nextSeq++
	copy(pkt[hdrSize:], data)
	p.outq = append(p.outq, pkt)
	e.pump(dst, p)
}

// pump transmits queued packets up to the window.
func (e *Endpoint) pump(dst int, p *peerState) {
	for p.sentUpTo < len(p.outq) && p.sentUpTo < e.cfg.Window {
		pkt := p.outq[p.sentUpTo]
		// Piggyback the cumulative acknowledgement for the reverse
		// direction on every data packet.
		binary.LittleEndian.PutUint32(pkt[8:], p.expected)
		p.lastAcked = p.expected
		p.ackOwed = false
		e.wrid++
		e.qp.SendTo(e.wrid, dst, 0, pkt)
		p.sentUpTo++
		e.stats.Sent++
	}
	e.armRTO(dst, p)
}

func (e *Endpoint) armRTO(dst int, p *peerState) {
	if len(p.outq) == 0 {
		if p.rtoTimer != nil {
			p.rtoTimer.Stop()
		}
		return
	}
	if p.rtoTimer == nil {
		p.rtoTimer = sim.NewTimer(e.eng, func() { e.onRTO(dst, p) })
	}
	p.rtoTimer.Reset(e.cfg.RetransmitTimeout)
}

// onRTO rewinds the window (go-back-N) after an acknowledgement drought.
func (e *Endpoint) onRTO(dst int, p *peerState) {
	if len(p.outq) == 0 {
		return
	}
	e.stats.Retransmits += uint64(p.sentUpTo)
	p.sentUpTo = 0
	e.pump(dst, p)
}

// OnEvent implements sim.Handler: the endpoint's completion driver. A
// CQ notification (or an elapsed software-receive charge) re-enters
// here; the CQ is drained, each arrived datagram pays SWRecv as a
// staged continuation, and the CQ is re-armed before going idle.
func (e *Endpoint) OnEvent(uint64) {
	if e.pend != nil {
		buf := e.pend
		e.pend = nil
		e.handlePacket(buf)
		e.pool.Put(buf[:ib.MaxUDPayload])
		e.postRecv()
	}
	for {
		wc, ok := e.cq.Poll()
		if !ok {
			e.cq.Arm()
			return
		}
		switch wc.Opcode {
		case ib.OpSendComplete:
			// Local completion only; reliability is ack-driven.
		case ib.OpRecvComplete:
			buf := e.bufs[wc.WRID]
			delete(e.bufs, wc.WRID)
			e.pend = buf[:wc.Len]
			e.eng.AfterCall(e.cfg.SWRecv, e, 0)
			return
		}
	}
}

func (e *Endpoint) handlePacket(pkt []byte) {
	src := int(binary.LittleEndian.Uint16(pkt[2:]))
	seq := binary.LittleEndian.Uint32(pkt[4:])
	ack := binary.LittleEndian.Uint32(pkt[8:])
	p := e.peers[src]

	// Cumulative acknowledgement: retire acked packets.
	e.onAck(src, p, ack)

	if pkt[0] == pktAck {
		return
	}

	if seq != p.expected {
		// Go-back-N: drop and re-ack so the sender rewinds quickly.
		e.stats.DupsDropped++
		e.sendAck(src, p)
		return
	}
	p.expected++
	e.stats.Delivered++
	// Stage the payload in the endpoint's reusable delivery buffer: the
	// OnMessage contract is borrow-until-return, so the copy out of the
	// receive-pool buffer (which postRecv reuses) is the only one needed.
	data := e.deliverBuf[:copy(e.deliverBuf, pkt[hdrSize:])]
	e.scheduleAck(src, p)
	e.handler(src, data)
}

// onAck retires packets up to ack (exclusive).
func (e *Endpoint) onAck(src int, p *peerState, ack uint32) {
	if ack <= p.baseSeq {
		return
	}
	n := int(ack - p.baseSeq)
	if n > len(p.outq) {
		n = len(p.outq)
	}
	// Retired packets can never be retransmitted again: recycle their
	// buffers and drop the queue's references to them.
	for i := 0; i < n; i++ {
		e.pool.Put(p.outq[i][:ib.MaxUDPayload])
		p.outq[i] = nil
	}
	p.outq = p.outq[n:]
	p.baseSeq += uint32(n)
	p.sentUpTo -= n
	if p.sentUpTo < 0 {
		p.sentUpTo = 0
	}
	e.pump(src, p)
}

// scheduleAck batches an acknowledgement after AckDelay; window pressure
// (half the window unacknowledged) forces it out immediately.
func (e *Endpoint) scheduleAck(src int, p *peerState) {
	p.ackOwed = true
	if p.expected-p.lastAcked >= uint32((e.cfg.Window+1)/2) {
		e.sendAck(src, p)
		return
	}
	if p.ackTimer == nil {
		p.ackTimer = sim.NewTimer(e.eng, func() {
			if p.ackOwed {
				e.sendAck(src, p)
			}
		})
	}
	if !p.ackTimer.Armed() {
		p.ackTimer.Reset(e.cfg.AckDelay)
	}
}

func (e *Endpoint) sendAck(dst int, p *peerState) {
	p.ackOwed = false
	p.lastAcked = p.expected
	pkt := e.pool.Get()[:hdrSize]
	pkt[0], pkt[1] = pktAck, 0 // recycled buffers carry stale bytes: write the full header
	binary.LittleEndian.PutUint16(pkt[2:], uint16(e.node))
	binary.LittleEndian.PutUint32(pkt[4:], 0)
	binary.LittleEndian.PutUint32(pkt[8:], p.expected)
	e.wrid++
	// SendTo copies the payload into the arrival's staging buffer before
	// returning, so a pure ack (never retransmitted) recycles immediately.
	e.qp.SendTo(e.wrid, dst, 0, pkt)
	e.pool.Put(pkt[:ib.MaxUDPayload])
	e.stats.AcksSent++
}

// Quiescent reports whether every peer's send queue drained.
func (e *Endpoint) Quiescent() bool {
	for _, p := range e.peers {
		if len(p.outq) > 0 {
			return false
		}
	}
	return true
}

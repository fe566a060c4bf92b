package ib

import (
	"fmt"

	"ibflow/internal/sim"
)

// UDStats counts Unreliable Datagram events.
type UDStats struct {
	Sent      uint64
	Delivered uint64
	Dropped   uint64 // arrivals with no posted receive descriptor
}

// UDQP is an Unreliable Datagram queue pair: connectionless, datagrams up
// to the MTU, no acknowledgements and no retry — an arrival finding no
// posted receive descriptor is silently dropped. One receive descriptor
// pool serves traffic from every peer, which is exactly the buffer
// scalability property that makes datagram transports attractive for very
// large clusters (the paper's future-work direction); reliability must be
// rebuilt in software (internal/rdc).
type UDQP struct {
	hca    *HCA
	num    int
	rail   int32 // every datagram's rail, fixed at creation
	sendCQ *CQ
	recvCQ *CQ

	recvQ recvQueue

	// sendEv is the bound send-completion handler: AtCall carries the
	// WRID as the event payload, so retiring a datagram send stays
	// closure-free.
	sendEv udSendEvent

	stats UDStats
}

// udSendEvent pushes the local send completion for a UD datagram once
// the last bit leaves the source port.
type udSendEvent struct{ qp *UDQP }

func (se *udSendEvent) OnEvent(wrid uint64) {
	qp := se.qp
	qp.sendCQ.push(WC{UD: qp, Opcode: OpSendComplete, Status: StatusSuccess, WRID: wrid})
}

// MaxUDPayload is the datagram size limit (a 2 KB MTU, as InfiniBand UD
// with the paper-era MTU configuration).
const MaxUDPayload = 2048

// NewUDQP creates a UD queue pair on this adapter. Its number addresses
// it fabric-wide together with the node id.
func (h *HCA) NewUDQP(sendCQ, recvCQ *CQ) *UDQP {
	qp := &UDQP{hca: h, num: len(h.udqps), rail: h.fabric.nextRail(), sendCQ: sendCQ, recvCQ: recvCQ}
	qp.sendEv.qp = qp
	h.udqps = append(h.udqps, qp)
	return qp
}

// Num returns the queue pair number on its HCA.
func (qp *UDQP) Num() int { return qp.num }

// Stats returns a copy of the UD counters.
func (qp *UDQP) Stats() UDStats { return qp.stats }

// PostedRecvs reports currently posted receive descriptors.
func (qp *UDQP) PostedRecvs() int { return qp.recvQ.posted() }

// PostRecv posts a receive descriptor to the shared pool.
func (qp *UDQP) PostRecv(wrid uint64, buf []byte) {
	qp.recvQ.post(recvWQE{wrid: wrid, buf: buf})
}

// SendTo transmits one datagram to (dstNode, dstQPN). The send completes
// locally once the datagram is on the wire; whether it is delivered
// depends entirely on the receiver having a descriptor posted.
func (qp *UDQP) SendTo(wrid uint64, dstNode, dstQPN int, payload []byte) {
	if len(payload) > MaxUDPayload {
		panic(fmt.Sprintf("ib: UD datagram of %d bytes exceeds the %d-byte MTU",
			len(payload), MaxUDPayload))
	}
	f := qp.hca.fabric
	if dstNode < 0 || dstNode >= len(f.hcas) {
		panic(fmt.Sprintf("ib: UD send to unknown node %d", dstNode))
	}
	dstHCA := f.hcas[dstNode]
	if dstQPN < 0 || dstQPN >= len(dstHCA.udqps) {
		panic(fmt.Sprintf("ib: UD send to unknown QPN %d on node %d", dstQPN, dstNode))
	}
	dst := dstHCA.udqps[dstQPN]
	cfg := f.Config()
	eng := f.eng
	tx := cfg.TxTime(len(payload))

	qp.stats.Sent++
	qp.hca.stats.MsgsSent++
	qp.hca.stats.BytesSent += uint64(len(payload) + cfg.HeaderBytes)

	start := qp.hca.egress[qp.rail].reserve(eng.Now()+cfg.SendOverhead, tx)
	eng.AtCall(start+tx, &qp.sendEv, wrid)
	// Snapshot the payload into the arrival's own staging buffer: the
	// caller may reuse its slice the moment SendTo returns.
	de := f.uds.Get()
	de.f, de.dst, de.srcNode, de.rail, de.tx = f, dst, qp.hca.node, qp.rail, tx
	de.n = copy(de.buf[:], payload)
	f.deliverTo(qp.hca, dstHCA, qp.rail, start, tx, len(payload), de)
}

// udDeliverEvent walks one datagram through the destination port as a
// bound two-stage handler (the deliverTo convention, see topology.go):
// stage 0 reserves the destination ingress link and charges the receive
// overhead, stage 1 hands the payload to the destination queue pair and
// returns the arrival, staging buffer and all, to the fabric's pool: a UD
// datagram in steady state allocates nothing.
type udDeliverEvent struct {
	f       *Fabric
	dst     *UDQP
	srcNode int
	rail    int32 // the sending QP's
	n       int   // datagram length within buf
	tx      sim.Time
	buf     [MaxUDPayload]byte
}

func (de *udDeliverEvent) OnEvent(stage uint64) {
	if stage == 0 {
		cfg := &de.f.cfg
		arrive := de.dst.hca.ingress[de.rail].reserve(de.f.eng.Now(), de.tx) + de.tx
		de.f.eng.AtCall(arrive+cfg.RecvOverhead, de, 1)
		return
	}
	de.dst.deliver(de.srcNode, de.buf[:de.n])
	de.f.uds.Put(de)
}

// deliver hands a datagram to a posted descriptor, or drops it.
func (qp *UDQP) deliver(srcNode int, data []byte) {
	r, ok := qp.recvQ.take()
	if !ok {
		qp.stats.Dropped++
		return
	}
	if len(data) > len(r.buf) {
		panic(fmt.Sprintf("ib: %d-byte datagram into %d-byte descriptor", len(data), len(r.buf)))
	}
	copy(r.buf, data)
	qp.stats.Delivered++
	qp.hca.stats.MsgsDelivered++
	qp.recvCQ.push(WC{UD: qp, Opcode: OpRecvComplete, WRID: r.wrid,
		Len: len(data), SrcNode: srcNode})
}

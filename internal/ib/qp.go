package ib

import (
	"fmt"
	"math"

	"ibflow/internal/debug"
	"ibflow/internal/sim"
	"ibflow/internal/store"
	"ibflow/internal/trace"
)

// opKind distinguishes work request types on the send queue.
type opKind int

const (
	opSend opKind = iota
	opWrite
	opWriteImm
	opRead
)

// sendWQE is a queued work request on a QP's send queue. The boxes come
// from a pool on the adapter, shared by its QPs (a rank keeps a handful
// of sends in flight, over however many connections): a WQE is the
// adapter's from post to completion — retireAcked returns the box when
// the in-order completion posts, and the next Post* on any QP of the HCA
// takes it. Returning it at retirement is safe without reference counting
// because a QP's delivery is FIFO (its one path books the same links in
// call order, and fault jitter preserves per-pair order), so every in-flight
// attempt of a WQE — including stale go-back-N duplicates — has reached
// the receiver's deliver before the ack that retires it was even sent.
// That is a fact about the retiring QP's own stream and holds at the
// moment of release; which QP takes the box next does not enter into it
// (post rebinds the box's events). ibdebug builds hold transmit and
// deliver to it: the box must be live in the sending adapter's pool.
type sendWQE struct {
	kind     opKind
	wrid     uint64
	payload  []byte    // send / RDMA write source
	remote   RemoteKey // RDMA target (write) or source (read)
	readDst  []byte    // RDMA read destination
	seq      uint64
	attempts int       // RNR retry attempts
	imm      uint32    // notify value for opWriteImm
	sent     bool      // has been transmitted at least once
	acked    bool      // delivery acknowledged, awaiting in-order retirement
	failing  bool      // ran out of RNR retries; its error CQE posts when it heads the queue
	wire     wireEvent // bound delivery callback, reused across retransmits
	read     readEvent // bound read-response callback (opRead only)
}

// wireEvent is the delivery callback for one WQE, embedded in the WQE so
// transmits (and go-back-N retransmits) schedule through sim.AtCall
// without allocating a closure per attempt. The event argument selects
// the stage: 0 = message fully arrived at the destination port (reserve
// the ingress link, charge receive overhead), 1 = hand to the receiving
// QP. The struct holds no per-attempt state, so overlapping in-flight
// attempts of the same WQE — a rewind racing its original delivery — are
// safe.
type wireEvent struct {
	w  *sendWQE
	qp *QP // sending side
}

func (we *wireEvent) OnEvent(stage uint64) {
	sender := we.qp
	peer := sender.peer
	f := sender.hca.fabric
	if stage == 0 {
		tx := txTime(we.w.wireLen())
		arrive := peer.hca.ingress[sender.rail].reserve(f.eng.Now(), tx) + tx
		f.eng.AtCall(arrive+recvOverhead, we, 1)
		return
	}
	peer.deliver(we.w, sender)
}

// readEvent streams an RDMA read response back to the requester, embedded
// in the WQE so the two response hops schedule through sim.AtCall without
// a closure per hop. Stages mirror wireEvent: 0 = response fully arrived
// at the requester's port (reserve the ingress link, charge receive
// overhead), 1 = land the data and retire the WQE. A read is delivered at
// most once (a retransmitted read arrives out of order and is dropped
// before reaching the opRead arm), so no overlapping attempt can race the
// response. The payload is copied out of the responder's registered
// region at landing time rather than snapshotted into a fresh buffer at
// the responder: a registered rendezvous source stays untouched until the
// requester's FIN (which cannot be sent before this landing), so the
// bytes are identical and the per-read allocation disappears.
type readEvent struct {
	w      *sendWQE
	sender *QP // requesting side, receives the response
}

func (re *readEvent) OnEvent(stage uint64) {
	sender := re.sender
	f := sender.hca.fabric
	if stage == 0 {
		tx := txTime(len(re.w.readDst))
		arrive := sender.hca.ingress[sender.rail].reserve(f.eng.Now(), tx) + tx
		f.eng.AtCall(arrive+recvOverhead, re, 1)
		return
	}
	w := re.w
	copy(w.readDst, w.remote.MR.Window(w.remote.Offset, len(w.readDst)))
	sender.retireSeq(w.seq)
}

// nakEvent is a QP as the target of its deferred RNR NAKs (arg = rewound
// sequence): a second handler type over the same memory, so NAK
// scheduling allocates nothing and the QP carries no bound event for it.
type nakEvent QP

func (ne *nakEvent) OnEvent(seq uint64) { (*QP)(ne).onRNRNak(seq) }

// ackEvent is a QP as the target of its deferred cumulative acks (arg =
// acknowledged sequence), so the per-message ack round-trip schedules
// without a closure.
type ackEvent QP

func (ae *ackEvent) OnEvent(seq uint64) { (*QP)(ae).retireSeq(seq) }

// checkPayload refuses a send payload of n bytes that a completion's
// 32-bit length cannot report.
func checkPayload(n int) {
	if n > math.MaxInt32 {
		panic(fmt.Sprintf("ib: a %d-byte send does not fit a completion's 32-bit length", n))
	}
}

func (w *sendWQE) wireLen() int {
	switch w.kind {
	case opSend, opWrite, opWriteImm:
		return len(w.payload)
	default:
		return 0 // read request carries no payload
	}
}

// QPStats counts per-connection transport events.
type QPStats struct {
	MsgsSent     uint64 // distinct messages transmitted (first attempts)
	Delivered    uint64 // messages accepted by the receiver
	BytesSent    uint64
	RNRNaks      uint64 // NAKs received by this (sending) side
	Retransmits  uint64 // messages re-transmitted after a rewind
	WastedBytes  uint64 // bytes of dropped or re-sent traffic
	RNRExhausted uint64 // WQEs that ran out of RNR retry budget
}

// QP is one side of a Reliable Connection. Work requests complete in FIFO
// order; an RNR NAK rewinds the stream (go-back-N) and stalls everything
// behind the not-ready message, exactly the head-of-line blocking that makes
// the paper's hardware-based flow control scheme expensive under pressure.
type QP struct {
	hca    *HCA
	peer   *QP
	sendCQ *CQ
	recvCQ *CQ
	owner  any // the consumer's context (see SetOwner)

	// sender state. queue is a ring indexed by seq - baseSeq: the head
	// retires, go-back-N rewinds next, an ack marks its entry in place.
	queue    store.Fifo[*sendWQE] // [0,next) in flight; [next,Len) waiting
	queue0   [4]*sendWQE          // the first ring
	baseSeq  uint64               // seq of the queue's head
	sendSeq  uint64               // next seq to assign
	num      int32                // the QP's number on its HCA
	next     int32                // in-flight cursor, at most sendWindow
	rail     int32                // the connection's rail, fixed at Connect
	stalled  bool                 // waiting out an RNR timer
	failed   bool                 // frozen after RNR budget exhaustion (see ResumeStalled)
	refused  bool                 // receiver: expected was RNR-NAKed since the last acceptance
	rnrTimer *sim.Timer

	// receiver state. The posted receive descriptors are the shared
	// receive queue srq's, serving many QPs, or — srq nil — the private
	// queue rq's, for a classic RC connection (see takeRecv).
	srq      *SRQ
	rq       recvQueue
	expected uint64 // next acceptable incoming seq

	stats QPStats
}

// HCA returns the adapter this QP lives on.
func (qp *QP) HCA() *HCA { return qp.hca }

// Peer returns the connected remote QP, or nil.
func (qp *QP) Peer() *QP { return qp.peer }

// SetOwner hangs the consumer's context on the QP — the verbs qp_context.
// A completion names its QP (WC.QP) and the QP hands the context back, so
// a consumer needs no lookup table above the transport.
func (qp *QP) SetOwner(o any) { qp.owner = o }

// Owner returns the context set by SetOwner, or nil.
func (qp *QP) Owner() any { return qp.owner }

// Stats returns a copy of the QP's counters.
func (qp *QP) Stats() QPStats { return qp.stats }

// PostedRecvs reports how many receive descriptors are currently
// available to arrivals on this QP. For an SRQ-attached QP this is the
// shared pool's free count, which every attached QP reports alike.
func (qp *QP) PostedRecvs() int {
	if qp.srq != nil {
		return qp.srq.posted()
	}
	return qp.rq.posted()
}

// takeRecv consumes the next receive descriptor in FIFO order, from
// whatever provisions this QP: its private queue, or the shared pool.
// The delivery path asks only this and PostedRecvs, so a send arriving
// when nothing is posted triggers the RNR NAK path identically for
// both: "pool empty" and "queue empty" produce the same
// receiver-not-ready semantics by construction.
func (qp *QP) takeRecv() (recvWQE, bool) {
	if qp.srq != nil {
		return qp.srq.take()
	}
	return qp.rq.take()
}

// SRQ returns the shared receive queue this QP consumes from, or nil for
// a QP with a private receive queue.
func (qp *QP) SRQ() *SRQ { return qp.srq }

// QueuedSends reports send WQEs not yet retired (in flight or waiting).
func (qp *QP) QueuedSends() int { return qp.queue.Len() }

// PostRecv posts a receive descriptor. Incoming sends consume descriptors
// in FIFO order; a send arriving when none is posted triggers an RNR NAK.
// A QP attached to a shared receive queue has no private queue to post
// into: descriptors go to the SRQ instead.
func (qp *QP) PostRecv(wrid uint64, buf []byte) {
	qp.postRecv(recvWQE{wrid: wrid, buf: buf})
}

// PostRecvFrom posts a descriptor-only receive: the descriptor counts as
// posted like any other, but its bytes are taken from src only when a
// message is accepted into it (see RecvSource) and come back in WC.Buf.
// Consecutive posts with the same wrid and src cost the queue one run.
func (qp *QP) PostRecvFrom(wrid uint64, src RecvSource) {
	qp.postRecv(recvWQE{wrid: wrid, src: src})
}

func (qp *QP) postRecv(w recvWQE) {
	if qp.srq != nil {
		panic("ib: PostRecv on an SRQ-attached QP; post to the SRQ instead")
	}
	qp.rq.post(w)
}

// PostSend posts a channel-semantics send of payload, which must be
// shorter than 2^31 bytes: its completions report the length in 32 bits
// (WC.Len). An RDMA payload is bounded by its region, which is.
func (qp *QP) PostSend(wrid uint64, payload []byte) {
	checkPayload(len(payload))
	w := qp.hca.wqes.Get()
	w.kind, w.wrid, w.payload = opSend, wrid, payload
	qp.post(w)
}

// PostWrite posts an RDMA write of payload into remote memory. It consumes
// no receive descriptor and completes invisibly to the remote software.
func (qp *QP) PostWrite(wrid uint64, payload []byte, remote RemoteKey) {
	if remote.Offset+len(payload) > remote.MR.Len() {
		panic("ib: RDMA write beyond registered region")
	}
	w := qp.hca.wqes.Get()
	w.kind, w.wrid, w.payload, w.remote = opWrite, wrid, payload, remote
	qp.post(w)
}

// PostWriteNotify is an RDMA write that additionally surfaces a completion
// with an immediate value on the remote receive CQ without consuming a
// receive descriptor. It models the memory-polling arrival detection of
// RDMA-based eager channels.
func (qp *QP) PostWriteNotify(wrid uint64, payload []byte, remote RemoteKey, imm uint32) {
	if remote.Offset+len(payload) > remote.MR.Len() {
		panic("ib: RDMA write beyond registered region")
	}
	w := qp.hca.wqes.Get()
	w.kind, w.wrid, w.payload, w.remote, w.imm = opWriteImm, wrid, payload, remote, imm
	qp.post(w)
}

// PostRead posts an RDMA read of len(dst) bytes from remote memory into dst.
func (qp *QP) PostRead(wrid uint64, dst []byte, remote RemoteKey) {
	if remote.Offset+len(dst) > remote.MR.Len() {
		panic("ib: RDMA read beyond registered region")
	}
	w := qp.hca.wqes.Get()
	w.kind, w.wrid, w.readDst, w.remote = opRead, wrid, dst, remote
	qp.post(w)
}

func (qp *QP) post(w *sendWQE) {
	if qp.peer == nil {
		panic("ib: post on unconnected QP")
	}
	w.seq = qp.sendSeq
	qp.sendSeq++
	w.wire = wireEvent{w: w, qp: qp}
	qp.queue.Push(w)
	qp.debugCheckQueue()
	qp.pump()
}

// debugCheckQueue asserts the send queue's FIFO numbering: every queued
// WQE carries baseSeq plus its index, sendSeq points one past the tail,
// and the in-flight cursor stays inside the queue. Only an ibdebug build
// runs the scan; otherwise the whole method is dead code.
func (qp *QP) debugCheckQueue() {
	if !debug.Enabled {
		return
	}
	n := qp.queue.Len()
	debug.Assert(qp.next >= 0 && int(qp.next) <= n,
		"ib: QP %d in-flight cursor %d outside send queue of %d", qp.num, qp.next, n)
	debug.Assert(qp.sendSeq == qp.baseSeq+uint64(n),
		"ib: QP %d sendSeq %d != baseSeq %d + %d queued", qp.num, qp.sendSeq, qp.baseSeq, n)
	for i := 0; i < n; i++ {
		w := *qp.queue.At(i)
		debug.Assert(w.seq == qp.baseSeq+uint64(i),
			"ib: QP %d send queue out of FIFO order: queue[%d].seq = %d, want %d",
			qp.num, i, w.seq, qp.baseSeq+uint64(i))
	}
}

// pump transmits queued WQEs up to the in-flight window.
func (qp *QP) pump() {
	for !qp.stalled && !qp.failed && int(qp.next) < qp.queue.Len() && qp.next < sendWindow {
		qp.transmit(*qp.queue.At(int(qp.next)))
		qp.next++
	}
}

// transmit puts one message on the wire: egress serialization, switch
// latency, ingress serialization at the peer, then delivery processing.
func (qp *QP) transmit(w *sendWQE) {
	debug.Assert(qp.hca.wqes.Live(w), "ib: QP %d transmitting a recycled WQE (gen %d)", qp.num, qp.hca.wqes.Gen(w))
	eng := qp.hca.fabric.eng
	cfg := qp.hca.fabric.Config()
	n := w.wireLen()
	tx := txTime(n)

	if w.sent {
		qp.stats.Retransmits++
		qp.stats.WastedBytes += uint64(n)
		if cfg.Tracer != nil {
			cfg.Tracer.Add(trace.Event{T: eng.Now(), Rank: qp.hca.node,
				Peer: qp.peer.hca.node, Kind: trace.Retransmit, Arg: int64(n)})
		}
	} else {
		w.sent = true
		qp.stats.MsgsSent++
		qp.stats.BytesSent += uint64(n)
	}

	start := qp.hca.egress[qp.rail].reserve(eng.Now()+sendOverhead, tx)
	qp.hca.fabric.deliverTo(qp.hca, qp.peer.hca, qp.rail, start, tx, n, &w.wire)
}

// deliver processes message w arriving at the receiving QP.
func (qp *QP) deliver(w *sendWQE, sender *QP) {
	debug.Assert(sender.hca.wqes.Live(w), "ib: QP %d delivering a recycled WQE (gen %d)", qp.num, sender.hca.wqes.Gen(w))
	eng := qp.hca.fabric.eng
	cfg := qp.hca.fabric.Config()

	if w.seq != qp.expected {
		// Out of order: in flight behind a message this QP RNR-NAKed, so
		// go-back-N resends it. One path per QP allows no other drop.
		debug.Assert(w.seq > qp.expected && qp.refused,
			"ib: QP %d (node %d) dropped seq %d from node %d out of order, expecting %d with no RNR NAK to resend it",
			qp.num, qp.hca.node, w.seq, sender.hca.node, qp.expected)
		sender.stats.WastedBytes += uint64(w.wireLen())
		return
	}

	switch w.kind {
	case opSend:
		// Consume the next receive descriptor from whatever provisions
		// this QP — private queue or shared pool. An injected ForceRNR
		// is consulted only when a descriptor is actually available, so
		// fault schedules are identical across provisioner shapes.
		var r recvWQE
		ready := false
		if qp.PostedRecvs() > 0 &&
			!(cfg.Faults != nil && cfg.Faults.ForceRNR(eng.Now(), qp.hca.node)) {
			r, ready = qp.takeRecv()
		}
		if !ready {
			// Receiver not ready: NAK back to the sender.
			qp.refused = true
			sender.stats.RNRNaks++
			if cfg.Tracer != nil {
				cfg.Tracer.Add(trace.Event{T: eng.Now(), Rank: qp.hca.node,
					Peer: sender.hca.node, Kind: trace.RNRNak, Arg: int64(w.seq)})
			}
			eng.AfterCall(switchLatency, (*nakEvent)(sender), w.seq)
			return
		}
		limit := len(r.buf)
		if r.src != nil {
			limit = r.src.BufSize()
		}
		if len(w.payload) > limit {
			panic(fmt.Sprintf("ib: message of %d bytes into %d-byte receive buffer",
				len(w.payload), limit))
		}
		if r.src != nil {
			// Commit at landing: a descriptor-only post owes its bytes
			// until a message is accepted into it, and then owes exactly
			// the message's. Every exit that refuses the message is above,
			// so the source is asked once per accepted message and never
			// for a NAKed or dropped one.
			r.buf = r.src.GetN(len(w.payload))
		}
		copy(r.buf, w.payload)
		qp.accept()
		qp.recvCQ.push(WC{QP: qp, Opcode: OpRecvComplete, WRID: r.wrid, Len: int32(len(w.payload)), Buf: r.buf})
		qp.ack(sender, w)

	case opWrite, opWriteImm:
		copy(w.remote.MR.Window(w.remote.Offset, len(w.payload)), w.payload)
		qp.accept()
		if w.kind == opWriteImm {
			qp.recvCQ.push(WC{QP: qp, Opcode: OpRecvImm, Len: int32(len(w.payload)), Imm: w.imm})
		}
		qp.ack(sender, w)

	case opRead:
		qp.accept()
		// The read response streams back on this side's egress link. No
		// payload snapshot is taken: the registered source region stays
		// stable until the response lands (see readEvent).
		n := len(w.readDst)
		tx := txTime(n)
		start := qp.hca.egress[qp.rail].reserve(eng.Now(), tx)
		w.read = readEvent{w: w, sender: sender}
		eng.AtCall(start+switchLatency, &w.read, 0)
	}
}

// accept advances the receive sequence past the message just taken in.
func (qp *QP) accept() {
	qp.expected++
	qp.refused = false
	qp.stats.Delivered++
}

// ack schedules the sender-side retirement of w after the ack round-trip,
// possibly stretched by an injected completion delay.
func (qp *QP) ack(sender *QP, w *sendWQE) {
	eng := qp.hca.fabric.eng
	cfg := qp.hca.fabric.Config()
	lat := ackLatency
	if cfg.Faults != nil {
		lat += cfg.Faults.AckDelay(eng.Now())
	}
	eng.AfterCall(lat, (*ackEvent)(sender), w.seq)
}

// retireSeq marks the WQE carrying seq acknowledged — by its ack, or a
// read by its landed response — if it is still queued, and pops the
// acked prefix. Acks are cumulative, as on a real HCA: an ack delayed
// (by fault injection) past its successor's retires both when it lands,
// and one delayed past the retirement of its WQE finds nothing to mark.
func (qp *QP) retireSeq(seq uint64) {
	if seq >= qp.baseSeq {
		if idx := int(seq - qp.baseSeq); idx < qp.queue.Len() {
			(*qp.queue.At(idx)).acked = true
		}
	}
	qp.retireAcked()
}

// retireAcked pops the acked prefix of the send queue, posting
// completions in FIFO order and recycling each retired WQE box, posts the
// error completion of a head that ran out of RNR retries, then refills
// the in-flight window. This is where a WQE box goes back to the
// adapter's pool: the ack that marked the head arrived a full
// ackLatency after the last delivery of that WQE, so no wire or read
// event still references the box (see sendWQE).
func (qp *QP) retireAcked() {
	for qp.queue.Len() > 0 && (*qp.queue.At(0)).acked {
		head := qp.queue.Pop()
		qp.next--
		qp.baseSeq++
		op := OpSendComplete
		switch head.kind {
		case opWrite, opWriteImm:
			op = OpWriteComplete
		case opRead:
			op = OpReadComplete
		}
		// The completion names what was posted (a read's payload is nil),
		// so a consumer needs no record of its own; the box pins nothing.
		wc := WC{QP: qp, Opcode: op, Status: StatusSuccess, WRID: head.wrid, Len: int32(head.wireLen()), Buf: head.payload}
		head.payload, head.readDst, head.remote = nil, nil, RemoteKey{}
		qp.hca.wqes.Put(head)
		qp.sendCQ.push(wc)
	}
	if qp.queue.Len() > 0 {
		if head := *qp.queue.At(0); head.failing {
			// The WQE that ran out of RNR retries heads the queue: every
			// predecessor has completed, so its error completion comes
			// next, and nothing behind it completes before ResumeStalled.
			head.failing = false
			qp.sendCQ.push(WC{QP: qp, Opcode: OpSendComplete, Status: StatusRNRRetryExceeded, WRID: head.wrid})
		}
	}
	qp.debugCheckQueue()
	qp.pump()
}

// onRNRNak handles a Receiver-Not-Ready NAK for seq: rewind the stream to
// seq and retry after the RNR timer, or — past the retry budget — freeze
// the QP and surface an error completion.
func (qp *QP) onRNRNak(seq uint64) {
	if seq < qp.baseSeq || qp.stalled || qp.failed {
		return // stale NAK, already rewinding, or already frozen
	}
	idx := int(seq - qp.baseSeq)
	if idx >= qp.queue.Len() {
		return
	}
	cfg := qp.hca.fabric.Config()
	w := *qp.queue.At(idx)
	w.attempts++
	if cfg.RNRRetryCount >= 0 && w.attempts > cfg.RNRRetryCount {
		// Retry budget exhausted. A real HCA transitions the QP to the
		// error state; we freeze the stream (the WQE and everything
		// behind it stay queued, preserving FIFO) and surface an error
		// completion instead of stalling silently. The owner
		// decides: re-issue via ResumeStalled after degrading, or tear
		// the connection down.
		qp.failed = true
		qp.next = int32(idx)
		qp.stats.RNRExhausted++
		qp.debugCheckQueue()
		if cfg.Tracer != nil {
			cfg.Tracer.Add(trace.Event{T: qp.hca.fabric.eng.Now(), Rank: qp.hca.node,
				Peer: qp.peer.hca.node, Kind: trace.RetryExhausted, Arg: int64(w.attempts)})
		}
		// Its error completion waits for its predecessors' acks, which
		// may still be in flight behind the NAK (see retireAcked).
		w.failing = true
		qp.retireAcked()
		return
	}
	qp.stalled = true
	qp.next = int32(idx)
	qp.debugCheckQueue()
	if qp.rnrTimer == nil {
		qp.rnrTimer = sim.NewTimer(qp.hca.fabric.eng, func() {
			qp.stalled = false
			qp.pump()
		})
	}
	qp.rnrTimer.Reset(rnrTimeout)
}

// ResumeStalled clears the frozen state after RNR budget exhaustion and
// restarts transmission from the failed WQE with a fresh retry budget.
// The failed WQE was never dropped, so the FIFO stream resumes intact.
// It is a no-op on a healthy QP, and on a frozen one whose error
// completion has not posted yet.
func (qp *QP) ResumeStalled() {
	if !qp.failed {
		return
	}
	w := *qp.queue.At(int(qp.next))
	if w.failing {
		return
	}
	qp.failed = false
	w.attempts = 0
	qp.pump()
}

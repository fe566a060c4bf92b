package ib

import (
	"bytes"
	"fmt"
	"testing"
	"unsafe"

	"ibflow/internal/fault"
	"ibflow/internal/sim"
	"ibflow/internal/trace"
)

// FuzzQP checks the RC transport against a plain go-back-N reference.
// The input decodes into a world and a script (see newQPModel): two
// or three adapters on a crossbar or a 2-rail fat tree, one RNR retry
// budget, a fault plan, and steps that post sends, writes,
// write-notifies, reads and receives, call ResumeStalled, or let time
// pass. The script then gives every receive queue one descriptor per
// send still owed and the engine runs until it drains.
//
// The engine runs one event at a time, and after each one the reference
// takes in what became visible: every completion, the receivers'
// Delivered counters, the RNR NAKs the transport traced. It keeps, per
// QP, the slice of posted work requests and, per receive queue (private
// or shared), the slice of posted descriptors, and holds these laws
// (DESIGN.md "Model check of ib.QP" has the mutations each one catches):
//
//  1. delivery: a stream's messages land one at a time, in post order,
//     each exactly once, and a receiver refuses (NAKs) only the stream's
//     next message; a send's receive completion carries its payload and
//     the receive queue's head descriptor, a write-notify's carries its
//     immediate, a write's bytes are in its target as it lands;
//  2. send completions: every work request completes exactly once, in
//     post order, after it landed — a read after its response did, with
//     the source's bytes in its destination — and names what was posted:
//     a send's or write's Buf is its payload (the same bytes, not a
//     copy), a read's is nil;
//  3. window: no more than sendWindow work requests are on the wire
//     (sent at least once, not completed), and a stream with no NAK
//     outstanding keeps the window as full as its queue allows;
//  4. RNR retry: after a NAK with budget left, the stream's next
//     attempt — landing or NAKed again — is of the NAKed message and comes
//     no earlier than rnrTimeout after the NAK;
//  5. exhaustion: the NAK past the budget yields exactly one error
//     completion, naming that work request, after every predecessor's
//     success; nothing of the stream lands or completes after it until
//     ResumeStalled, which is a no-op before the error completion posts;
//  6. descriptors: posted - consumed == PostedRecvs() for every receive
//     queue, consumed counts the receive completions (write-notify takes
//     none), a descriptor-only post commits bytes once, when a message
//     lands in it, and an SRQ's counters agree;
//  7. liveness: when the engine drains, every QP is empty or frozen with
//     its error completion posted, and its counters agree with the
//     reference (messages delivered, first transmissions in post order,
//     retries, exhaustions).
func FuzzQP(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		m := newQPModel(t, data)
		defer m.eng.Close()
		m.runScript()
		m.drain()
	})
}

// Script ops: the low three bits of a step's first byte; the rest of it
// picks the QP, and the step's second byte is the op's argument.
const (
	stepSend = iota
	stepWrite
	stepWriteNotify
	stepRead
	stepRecv
	stepResume
	stepAdvance // (arg+1) µs
	stepNudge   // arg*10 ns: lands between a message's hops
)

// maxScript bounds a script's steps, so every message's first byte (its
// number in its stream) and every write's target slot stay distinct.
const maxScript = 128

const (
	modelBufSize   = 32 // receive buffer and descriptor size, and the longest payload
	modelReadBytes = 64 // each adapter's read-source region
)

// mwqe is a posted send-side work request as the reference keeps it.
type mwqe struct {
	kind    opKind
	wrid    uint64
	payload []byte // the bytes sent or written; for a read, the source's bytes
	dst     []byte // a read's destination
	target  []byte // a write's window of the remote region
	imm     uint64
}

func (w *mwqe) wireLen() int {
	if w.kind == opRead {
		return 0
	}
	return len(w.payload)
}

// mdesc is a posted receive descriptor.
type mdesc struct {
	wrid uint64
	buf  []byte // nil for a descriptor-only post
}

// mrq is a receive queue — a QP's private one or an SRQ — as the
// reference keeps it.
type mrq struct {
	name     string
	srq      *SRQ // nil for a private queue
	qp       *QP  // the private queue's QP
	descs    []mdesc
	posted   int
	consumed int
	src      *countingSource // backs the descriptor-only posts
	fromSrc  int             // descriptor-only posts a message landed in
}

func (r *mrq) productPosted() int {
	if r.srq != nil {
		return r.srq.PostedRecvs()
	}
	return r.qp.PostedRecvs()
}

func (r *mrq) post(wrid uint64, descOnly bool) {
	d := mdesc{wrid: wrid}
	switch {
	case descOnly && r.srq != nil:
		r.srq.PostRecvFrom(wrid, r.src)
	case descOnly:
		r.qp.PostRecvFrom(wrid, r.src)
	case r.srq != nil:
		d.buf = make([]byte, modelBufSize)
		r.srq.PostRecv(wrid, d.buf)
	default:
		d.buf = make([]byte, modelBufSize)
		r.qp.PostRecv(wrid, d.buf)
	}
	r.descs = append(r.descs, d)
	r.posted++
}

// mqp is one QP: its send stream as the reference keeps it, and the
// receive queue its arrivals take descriptors from.
type mqp struct {
	qp   *QP
	name string
	peer *mqp
	rq   *mrq

	wqes   []mwqe
	landed int // messages accepted by the peer (the peer's Delivered)
	done   int // success completions

	// RNR state: the message last NAKed and how often since it was
	// last resumed, whether its next attempt is a timed retry (law 4),
	// and the exhaustion it may be in (law 5).
	nakSeq      int
	nakCount    int
	nakAt       sim.Time
	retryOwed   bool
	retried     int // NAKs followed by another attempt of their message
	failing     bool
	frozen      bool
	exhaustions uint64

	stats   QPStats // the product's counters after the last step
	recvWCs []WC    // receive completions of this event, not yet matched
}

type qpModel struct {
	t      *testing.T
	eng    *sim.Engine
	fabric *Fabric
	tracer *trace.Buffer
	budget int
	script []byte

	cqs    []*CQ
	qps    []*mqp
	byQP   map[*QP]*mqp
	rqs    []*mrq
	wrMR   []*MR // each adapter's write-target region
	rdMR   []*MR // each adapter's read-source region
	nextWr []int // next free write slot per adapter

	steps  int
	traced uint64 // tracer total after the last step
}

const modelHeaderLen = 4

var (
	modelBudgets  = [4]int{-1, 0, 1, 3}
	modelAckProbs = [4]float64{0, 0.2, 0.5, 0.9}
	modelRNRProbs = [4]float64{0, 0.1, 0.3, 0.6}
	modelJitProbs = [4]float64{0, 0.2, 0.5, 0.9}
)

// newQPModel decodes the input's header and builds its world. Byte 0:
// bit 0 three adapters (else two), bit 1 fat tree (else crossbar), bits
// 2-3 the RNR budget; byte 1: which QPs take descriptors from their
// adapter's SRQ (one bit per QP); byte 2: ack-delay, forced-RNR and
// jitter probabilities (two bits each); byte 3: the fault seed. The
// script is the rest, two bytes a step.
func newQPModel(t *testing.T, data []byte) *qpModel {
	hdr := make([]byte, modelHeaderLen)
	copy(hdr, data)
	script := data[min(len(data), modelHeaderLen):]
	script = script[:min(len(script), 2*maxScript)]

	nodes := 2 + int(hdr[0]&1)
	cfg := DefaultConfig()
	if hdr[0]&2 != 0 {
		cfg.Topology, cfg.LeafRadix, cfg.Oversub, cfg.Rails = TopoFatTree, 2, 1, 2
	}
	cfg.RNRRetryCount = modelBudgets[hdr[0]>>2&3]
	tracer := trace.NewBuffer(64)
	cfg.Tracer = tracer
	cfg.Faults = fault.New(fault.Config{
		Seed:         uint64(hdr[3]),
		Nodes:        nodes,
		AckDelayProb: modelAckProbs[hdr[2]&3],
		AckDelayMax:  20 * sim.Microsecond,
		RNRForceProb: modelRNRProbs[hdr[2]>>2&3],
		JitterProb:   modelJitProbs[hdr[2]>>4&3],
		JitterMax:    30 * sim.Microsecond,
	})
	eng := sim.NewEngine()
	m := &qpModel{
		t: t, eng: eng, fabric: NewFabric(eng, cfg, nodes), tracer: tracer,
		budget: cfg.RNRRetryCount, script: script,
		byQP:   map[*QP]*mqp{},
		nextWr: make([]int, nodes),
	}
	srqs := make([]*mrq, nodes)
	for n := 0; n < nodes; n++ {
		h := m.fabric.HCA(n)
		m.cqs = append(m.cqs, h.NewCQ())
		rd := make([]byte, modelReadBytes)
		for i := range rd {
			rd[i] = byte(0x80 + 16*n + i)
		}
		m.wrMR = append(m.wrMR, h.RegisterMemory(make([]byte, maxScript*modelBufSize)))
		m.rdMR = append(m.rdMR, h.RegisterMemory(rd))
	}
	// Two adapters: two connections between them, one per rail on the
	// fat tree. Three: a ring of connections, one of them across leaves.
	conns := [][2]int{{0, 1}, {1, 0}}
	if nodes == 3 {
		conns = [][2]int{{0, 1}, {1, 2}, {2, 0}}
	}
	newEnd := func(node int) *mqp {
		h := m.fabric.HCA(node)
		e := &mqp{name: fmt.Sprintf("qp%d@%d", len(m.qps), node)}
		if hdr[1]>>len(m.qps)&1 != 0 {
			if srqs[node] == nil {
				srqs[node] = &mrq{name: fmt.Sprintf("srq@%d", node), srq: h.NewSRQ(), src: &countingSource{size: modelBufSize}}
				m.rqs = append(m.rqs, srqs[node])
			}
			e.qp = h.NewQPWithSRQ(m.cqs[node], m.cqs[node], srqs[node].srq)
			e.rq = srqs[node]
		} else {
			e.qp = h.NewQP(m.cqs[node], m.cqs[node])
			e.rq = &mrq{name: e.name, qp: e.qp, src: &countingSource{size: modelBufSize}}
			m.rqs = append(m.rqs, e.rq)
		}
		m.qps = append(m.qps, e)
		m.byQP[e.qp] = e
		return e
	}
	for _, c := range conns {
		a, b := newEnd(c[0]), newEnd(c[1])
		Connect(a.qp, b.qp)
		a.peer, b.peer = b, a
	}
	return m
}

// fail reports a broken law with where the run stood.
func (m *qpModel) fail(law int, format string, args ...any) {
	m.t.Helper()
	names := [...]string{"", "delivery", "send completions", "window", "RNR retry", "exhaustion", "descriptors", "liveness"}
	m.t.Fatalf("law %d (%s) at %v, event %d, budget %d: %s", law, names[law], m.eng.Now(), m.steps, m.budget, fmt.Sprintf(format, args...))
}

// runScript plays the script's steps.
func (m *qpModel) runScript() {
	for i := 0; i+1 < len(m.script); i += 2 {
		op, arg := m.script[i], m.script[i+1]
		q := m.qps[int(op>>3)%len(m.qps)]
		switch op & 7 {
		case stepSend, stepWrite, stepWriteNotify, stepRead:
			m.post(q, op&7, arg)
		case stepRecv:
			for n := 1 + int(arg&1); n > 0; n-- {
				q.rq.post(uint64(arg>>2), arg&2 != 0)
			}
			m.checkDescriptors()
		case stepResume:
			// The product acts only once the error completion is out.
			q.qp.ResumeStalled()
			if q.frozen {
				q.frozen, q.nakCount = false, 0
			}
			m.checkAll()
		case stepAdvance:
			m.advance(sim.Time(arg+1) * sim.Microsecond)
		case stepNudge:
			m.advance(sim.Time(arg) * 10 * sim.Nanosecond)
		}
	}
}

// post puts one send-side work request on q and into the reference.
func (m *qpModel) post(q *mqp, op byte, arg byte) {
	seq := len(q.wqes)
	n := 1 + int(arg)%modelBufSize
	w := mwqe{wrid: uint64(seq)<<8 | uint64(arg), payload: make([]byte, n)}
	w.payload[0] = byte(seq)
	for i := 1; i < n; i++ {
		w.payload[i] = byte(31*seq + 7*i + int(arg))
	}
	node := q.peer.qp.HCA().Node()
	switch op {
	case stepSend:
		w.kind = opSend
		q.qp.PostSend(w.wrid, w.payload)
	case stepWrite, stepWriteNotify:
		off := m.nextWr[node] * modelBufSize
		m.nextWr[node]++
		w.target = m.wrMR[node].Window(off, n)
		key := RemoteKey{MR: m.wrMR[node], Offset: off}
		if op == stepWrite {
			w.kind = opWrite
			q.qp.PostWrite(w.wrid, w.payload, key)
		} else {
			w.kind, w.imm = opWriteImm, uint64(arg)<<8|uint64(seq)
			q.qp.PostWriteNotify(w.wrid, w.payload, key, w.imm)
		}
	case stepRead:
		off := int(arg & 31)
		w.kind = opRead
		w.payload = m.rdMR[node].Window(off, 1+int(arg>>5)*4)
		w.dst = make([]byte, len(w.payload))
		q.qp.PostRead(w.wrid, w.dst, RemoteKey{MR: m.rdMR[node], Offset: off})
	}
	q.wqes = append(q.wqes, w)
	m.checkAll()
}

// advance runs the engine, one checked event at a time, until d has
// passed.
func (m *qpModel) advance(d sim.Time) {
	reached := false
	m.eng.At(m.eng.Now()+d, func() { reached = true })
	for !reached {
		m.step()
	}
}

// step runs one event and checks what it made visible.
func (m *qpModel) step() bool {
	if m.eng.Steps(1) == 0 {
		return false
	}
	m.steps++
	m.checkAll()
	return true
}

// drain gives every receive queue a descriptor per send still owed to
// it, runs the engine dry and holds law 7.
func (m *qpModel) drain() {
	for _, r := range m.rqs {
		owed := 0
		for _, q := range m.qps {
			if q.peer.rq == r {
				for _, w := range q.wqes[q.landed:] {
					if w.kind == opSend {
						owed++
					}
				}
			}
		}
		for n := owed - (r.posted - r.consumed); n > 0; n-- {
			r.post(uint64(9000+n), false)
		}
	}
	m.checkDescriptors()
	for m.step() {
		if m.steps > 1<<20 {
			m.fail(7, "the engine still runs after %d events", m.steps)
		}
	}
	for _, q := range m.qps {
		if q.failing {
			m.fail(7, "%s drained with its error completion never posted", q.name)
		}
		queued := len(q.wqes) - q.done
		if !q.frozen && queued != 0 {
			m.fail(7, "%s drained with %d of %d work requests never completed", q.name, queued, len(q.wqes))
		}
		if got := q.qp.QueuedSends(); got != queued {
			m.fail(7, "%s holds %d queued sends, the reference %d", q.name, got, queued)
		}
		st := q.qp.Stats()
		bytesFirst := uint64(0)
		for _, w := range q.wqes[:min(int(st.MsgsSent), len(q.wqes))] {
			bytesFirst += uint64(w.wireLen())
		}
		switch {
		case q.frozen && (int(st.MsgsSent) <= q.done || int(st.MsgsSent) > len(q.wqes)),
			!q.frozen && int(st.MsgsSent) != len(q.wqes):
			m.fail(7, "%s sent %d distinct messages: %d posted, %d completed, frozen %v", q.name, st.MsgsSent, len(q.wqes), q.done, q.frozen)
		case st.BytesSent != bytesFirst:
			m.fail(7, "%s counted %d bytes sent, its first %d messages hold %d", q.name, st.BytesSent, st.MsgsSent, bytesFirst)
		case st.RNRExhausted != q.exhaustions:
			m.fail(7, "%s counted %d exhaustions, the reference %d", q.name, st.RNRExhausted, q.exhaustions)
		case st.Retransmits < uint64(q.retried):
			m.fail(7, "%s counted %d retransmissions for %d retried NAKs", q.name, st.Retransmits, q.retried)
		}
		for _, w := range q.wqes[:q.landed] {
			if w.kind == opWrite || w.kind == opWriteImm {
				if !bytes.Equal(w.target, w.payload) {
					m.fail(1, "%s: write wrid %d reads %x in its target, want %x", q.name, w.wrid, w.target, w.payload)
				}
			}
		}
	}
}

// checkAll takes in one event's effects, in causal order: NAKs, then
// landings (which consume the receive completions), then send-side
// completions; then the window and descriptor laws.
func (m *qpModel) checkAll() {
	var sendWCs []WC
	for _, cq := range m.cqs {
		for {
			wc, ok := cq.Poll()
			if !ok {
				break
			}
			q := m.byQP[wc.QP]
			if q == nil {
				m.fail(1, "completion %+v names no QP of the world", wc)
			}
			if wc.Opcode == OpRecvComplete || wc.Opcode == OpRecvImm {
				q.recvWCs = append(q.recvWCs, wc)
			} else {
				sendWCs = append(sendWCs, wc)
			}
		}
	}
	m.checkNAKs()
	for _, q := range m.qps {
		m.checkLandings(q)
	}
	for _, q := range m.qps {
		if len(q.recvWCs) > 0 {
			m.fail(1, "%s: receive completion %+v with no message landing", q.name, q.recvWCs[0])
		}
	}
	for _, wc := range sendWCs {
		m.checkSendWC(m.byQP[wc.QP], wc)
	}
	for _, q := range m.qps {
		q.stats = q.qp.Stats()
		inFlight, want := int(q.stats.MsgsSent)-q.done, min(len(q.wqes)-q.done, sendWindow)
		if inFlight > sendWindow || inFlight < want && !q.retryOwed && !q.failing && !q.frozen {
			m.fail(3, "%s has %d work requests on the wire, %d queued", q.name, inFlight, len(q.wqes)-q.done)
		}
	}
	m.checkDescriptors()
}

// checkNAKs attributes the RNR NAKs traced in this event to the stream
// whose counter moved, and runs the retry and exhaustion bookkeeping.
func (m *qpModel) checkNAKs() {
	total := m.tracer.Total()
	fresh := int(total - m.traced)
	m.traced = total
	var naks []trace.Event
	if fresh > 0 {
		evs := m.tracer.Events()
		for _, e := range evs[len(evs)-fresh:] {
			if e.Kind == trace.RNRNak {
				naks = append(naks, e)
			}
		}
	}
	var moved []*mqp
	for _, q := range m.qps {
		if st := q.qp.Stats(); st.RNRNaks != q.stats.RNRNaks {
			if st.RNRNaks != q.stats.RNRNaks+1 {
				m.fail(4, "%s counted %d NAKs in one event", q.name, st.RNRNaks-q.stats.RNRNaks)
			}
			moved = append(moved, q)
		}
	}
	if len(moved) != len(naks) || len(naks) > 1 {
		m.fail(4, "%d NAKs traced in one event, %d streams counted one", len(naks), len(moved))
	}
	if len(naks) == 0 {
		return
	}
	q, e := moved[0], naks[0]
	s := int(e.Arg)
	switch {
	case e.Rank != q.peer.qp.HCA().Node() || e.Peer != q.qp.HCA().Node():
		m.fail(4, "%s counted a NAK traced from node %d to node %d", q.name, e.Rank, e.Peer)
	case q.failing || q.frozen:
		m.fail(5, "%s: message %d NAKed on a frozen stream", q.name, s)
	case s != q.landed:
		m.fail(1, "%s: NAK of message %d, the stream's next is %d", q.name, s, q.landed)
	case q.wqes[s].kind != opSend:
		m.fail(1, "%s: NAK of message %d, which needs no descriptor", q.name, s)
	}
	m.checkRetry(q, s)
	if s != q.nakSeq {
		q.nakSeq, q.nakCount = s, 0
	}
	q.nakCount++
	if m.budget >= 0 && q.nakCount > m.budget {
		q.failing = true
		q.exhaustions++
		return
	}
	q.retryOwed, q.nakAt = true, m.eng.Now()
}

// checkRetry holds law 4 on an attempt of message s of q: the NAK that
// preceded it was retried on the RNR timer.
func (m *qpModel) checkRetry(q *mqp, s int) {
	if !q.retryOwed {
		return
	}
	if s != q.nakSeq {
		m.fail(4, "%s: message %d attempted after the NAK of %d", q.name, s, q.nakSeq)
	}
	if d := m.eng.Now() - q.nakAt; d < rnrTimeout {
		m.fail(4, "%s: message %d attempted %v after its NAK", q.name, s, d)
	}
	q.retryOwed = false
	q.retried++
}

// checkLandings takes in the messages of q's stream its peer accepted in
// this event.
func (m *qpModel) checkLandings(q *mqp) {
	p := q.peer
	delivered := int(p.qp.Stats().Delivered)
	if delivered > q.landed+1 {
		m.fail(1, "%s: %d messages landed in one event", q.name, delivered-q.landed)
	}
	for ; q.landed < delivered; q.landed++ {
		k := q.landed
		if k >= len(q.wqes) {
			m.fail(1, "%s: message %d landed, %d posted", q.name, k, len(q.wqes))
		}
		if q.failing || q.frozen {
			m.fail(5, "%s: message %d landed on a frozen stream", q.name, k)
		}
		m.checkLanding(q, k)
		m.checkRetry(q, k)
	}
}

// checkLanding holds law 1 on message k of q as it lands: a write's
// bytes are in its target, and a send or write-notify brought its
// receive completion.
func (m *qpModel) checkLanding(q *mqp, k int) {
	p := q.peer
	w := &q.wqes[k]
	if w.kind == opWrite || w.kind == opWriteImm {
		if !bytes.Equal(w.target, w.payload) {
			m.fail(1, "%s: write %d landed as %x, want %x", q.name, k, w.target, w.payload)
		}
	}
	if w.kind != opSend && w.kind != opWriteImm {
		return
	}
	if len(p.recvWCs) == 0 {
		m.fail(1, "%s: message %d landed with no receive completion", q.name, k)
	}
	wc := p.recvWCs[0]
	p.recvWCs = p.recvWCs[1:]
	if w.kind == opWriteImm {
		if wc.Opcode != OpRecvImm || wc.Imm != w.imm || wc.Len != len(w.payload) {
			m.fail(1, "%s: write-notify %d completed as %+v, want imm %d", q.name, k, wc, w.imm)
		}
		return
	}
	r := p.rq
	if wc.Opcode != OpRecvComplete || len(r.descs) == 0 {
		m.fail(1, "%s: send %d completed as %+v with %d descriptors in %s", q.name, k, wc, len(r.descs), r.name)
	}
	d := r.descs[0]
	r.descs = r.descs[1:]
	r.consumed++
	switch {
	case wc.WRID != d.wrid:
		m.fail(1, "%s: send %d took descriptor wrid %d, %s's head is %d", q.name, k, wc.WRID, r.name, d.wrid)
	case wc.Len != len(w.payload) || len(wc.Buf) < wc.Len || !bytes.Equal(wc.Buf[:wc.Len], w.payload):
		m.fail(1, "%s: send %d landed as %x, want %x", q.name, k, wc.Buf, w.payload)
	case d.buf != nil && unsafe.SliceData(wc.Buf) != unsafe.SliceData(d.buf):
		m.fail(1, "%s: send %d landed outside its posted buffer", q.name, k)
	case d.buf == nil && (len(r.src.bufs) == 0 || unsafe.SliceData(wc.Buf) != unsafe.SliceData(r.src.bufs[len(r.src.bufs)-1])):
		m.fail(1, "%s: send %d landed outside the buffer its source committed", q.name, k)
	}
	if d.buf == nil {
		r.fromSrc++
	}
}

// checkSendWC holds laws 2 and 5 on one send-side completion of q.
func (m *qpModel) checkSendWC(q *mqp, wc WC) {
	if wc.Status == StatusRNRRetryExceeded {
		switch {
		case !q.failing:
			m.fail(5, "%s: error completion %+v with no budget exhausted", q.name, wc)
		case q.done != q.nakSeq:
			m.fail(5, "%s: error completion for message %d before %d predecessors completed", q.name, q.nakSeq, q.nakSeq-q.done)
		case wc.WRID != q.wqes[q.nakSeq].wrid || wc.Opcode != OpSendComplete:
			m.fail(5, "%s: error completion %+v, want wrid %d", q.name, wc, q.wqes[q.nakSeq].wrid)
		}
		q.failing, q.frozen = false, true
		return
	}
	k := q.done
	switch {
	case q.frozen:
		m.fail(5, "%s: completion %+v after the error completion", q.name, wc)
	case q.failing && k >= q.nakSeq:
		m.fail(5, "%s: completion %+v where the error completion of message %d is owed", q.name, wc, q.nakSeq)
	case k >= len(q.wqes):
		m.fail(2, "%s: completion %+v with all %d work requests completed", q.name, wc, k)
	}
	w := &q.wqes[k]
	want := OpSendComplete
	switch w.kind {
	case opWrite, opWriteImm:
		want = OpWriteComplete
	case opRead:
		want = OpReadComplete
	}
	switch {
	case wc.WRID != w.wrid || wc.Opcode != want || wc.Status != StatusSuccess || wc.Len != w.wireLen():
		m.fail(2, "%s: completion %+v, want %v wrid %d len %d", q.name, wc, want, w.wrid, w.wireLen())
	case k >= q.landed:
		m.fail(2, "%s: work request %d completed before it landed", q.name, k)
	case w.kind == opRead && !bytes.Equal(w.dst, w.payload):
		m.fail(2, "%s: read %d completed with %x, the source holds %x", q.name, k, w.dst, w.payload)
	case w.kind == opRead && wc.Buf != nil:
		m.fail(2, "%s: read %d completed with a %d-byte Buf, want nil", q.name, k, len(wc.Buf))
	case w.kind != opRead && (unsafe.SliceData(wc.Buf) != unsafe.SliceData(w.payload) || len(wc.Buf) != len(w.payload)):
		m.fail(2, "%s: work request %d completed with a %d-byte Buf that is not its %d-byte payload", q.name, k, len(wc.Buf), len(w.payload))
	}
	q.done++
}

// checkDescriptors holds law 6 on every receive queue.
func (m *qpModel) checkDescriptors() {
	for _, r := range m.rqs {
		if got, want := r.productPosted(), r.posted-r.consumed; got != want {
			m.fail(6, "%s holds %d descriptors, %d posted - %d consumed", r.name, got, r.posted, r.consumed)
		}
		if got := len(r.src.bufs); got != r.fromSrc {
			m.fail(6, "%s: its source committed %d buffers for %d descriptor-only landings", r.name, got, r.fromSrc)
		}
		if r.srq != nil {
			if st := r.srq.Stats(); st.PostedTotal != uint64(r.posted) || st.Taken != uint64(r.consumed) {
				m.fail(6, "%s counted %d posted, %d taken; the reference %d, %d", r.name, st.PostedTotal, st.Taken, r.posted, r.consumed)
			}
		}
	}
	for _, q := range m.qps {
		if got, want := q.qp.PostedRecvs(), q.rq.posted-q.rq.consumed; got != want {
			m.fail(6, "%s reports %d descriptors, its queue %s holds %d", q.name, got, q.rq.name, want)
		}
	}
}

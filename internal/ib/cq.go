package ib

import (
	"ibflow/internal/sim"
	"ibflow/internal/store"
)

// Opcode identifies the kind of completed work.
type Opcode int32

const (
	// OpSendComplete retires a send WQE at the sender.
	OpSendComplete Opcode = iota
	// OpRecvComplete signals an incoming message consumed a receive WQE.
	OpRecvComplete
	// OpWriteComplete retires an RDMA write WQE at the requester.
	OpWriteComplete
	// OpReadComplete retires an RDMA read WQE at the requester.
	OpReadComplete
	// OpRecvImm signals an RDMA-write-with-notify arrived. It consumes no
	// receive WQE; it stands in for the memory-polling detection used by
	// RDMA-based eager channels (see DESIGN.md, extensions).
	OpRecvImm
)

func (o Opcode) String() string {
	switch o {
	case OpSendComplete:
		return "SEND"
	case OpRecvComplete:
		return "RECV"
	case OpWriteComplete:
		return "RDMA_WRITE"
	case OpReadComplete:
		return "RDMA_READ"
	case OpRecvImm:
		return "RECV_IMM"
	}
	return "UNKNOWN"
}

// Status is the completion status of a work request.
type Status int32

const (
	// StatusSuccess is a successful completion.
	StatusSuccess Status = iota
	// StatusRNRRetryExceeded means the receiver never posted a buffer
	// within the configured retry budget.
	StatusRNRRetryExceeded
)

func (s Status) String() string {
	if s == StatusSuccess {
		return "OK"
	}
	return "RNR_RETRY_EXCEEDED"
}

// WC is a work completion (a completion queue entry). Its byte count
// and immediate value are 32 bits wide, as verbs' byte_len and imm_data
// are: a post refuses a payload that does not fit Len, and a region is
// shorter than 2^31 bytes (HCA.InitMR). Seven words: a CQ ring holds one
// per pending completion.
type WC struct {
	QP     *QP // queue pair the work belonged to
	Opcode Opcode
	Status Status
	WRID   uint64 // caller's work-request id
	Len    int32  // payload bytes (receives and RDMA)
	Imm    uint32 // immediate value for OpRecvImm
	Buf    []byte // receives: where the message landed (posted, or committed at landing); successful sends and writes: the posted payload; reads and error completions: nil
}

// CQ is a completion queue. Multiple queue pairs may share one CQ; the
// paper's MPI attaches every connection of a process to a single CQ. Its
// entries are the one ring (store.Fifo), sized by the completions pending
// at once and zeroing what it pops, so a polled completion pins no
// buffer; the first ring is the CQ's own array — what a consumer that
// polls as it goes leaves pending costs no allocation — so a CQ must not
// be copied.
type CQ struct {
	eng    *sim.Engine
	q      store.Fifo[WC]
	first  [cqMinCap]WC
	notify sim.Handler
	armed  bool
}

// cqMinCap is the first ring's size: a power of two, what a consumer
// that polls as it goes has pending (a ping-pong has one).
const cqMinCap = 2

// push appends a completion and, if the CQ is armed, fires its notify
// handler as an event at the current time (one-shot). A consumer learns
// of completions only this way or by polling.
func (cq *CQ) push(wc WC) {
	cq.q.Push(wc)
	if cq.armed {
		cq.armed = false
		cq.eng.AtCall(cq.eng.Now(), cq.notify, 0)
	}
}

// SetNotify registers h as the CQ's completion-notify handler. The
// handler only fires after Arm, and each arm delivers at most one
// notification — the verbs req_notify_cq discipline: poll until empty,
// re-arm, poll once more to close the race.
func (cq *CQ) SetNotify(h sim.Handler) { cq.notify = h }

// Arm requests a one-shot notification on the next completion. If
// completions are already pending the notification fires immediately (as
// an event at the current time), so an arm after a missed push is never
// lost. Panics without a registered notify handler.
func (cq *CQ) Arm() {
	if cq.notify == nil {
		panic("ib: CQ.Arm without SetNotify")
	}
	if cq.Len() > 0 {
		cq.eng.AtCall(cq.eng.Now(), cq.notify, 0)
		return
	}
	cq.armed = true
}

// Poll removes and returns the oldest completion, if any. A WC is seven
// words, so it is copied out of the ring once, straight into the result
// (At, then Drop), not through Pop's.
func (cq *CQ) Poll() (wc WC, ok bool) {
	if ok = cq.q.Len() > 0; ok {
		wc = *cq.q.At(0)
		cq.q.Drop()
	}
	return
}

// Len reports how many completions are waiting.
func (cq *CQ) Len() int { return cq.q.Len() }

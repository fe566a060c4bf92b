package ib

import "ibflow/internal/sim"

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
// shorter than 2^31 bytes (HCA.InitMR). Seven words: a pending completion
// is one, plus its queue link (cqEntry).
type WC struct {
	QP     *QP // queue pair the work belonged to
	Opcode Opcode
	Status Status
	WRID   uint64 // caller's work-request id
	Len    int32  // payload bytes (receives and RDMA)
	Imm    uint32 // immediate value for OpRecvImm
	Buf    []byte // receives: where the message landed (posted, or committed at landing); successful sends and writes: the posted payload; reads and error completions: nil
}

// cqEntry is a pending completion: a WC threaded to the one after it,
// taken from the fabric's pool (Fabric.cqes) at push and returned at Poll.
type cqEntry struct {
	WC
	next *cqEntry
}

// CQ is a completion queue. Multiple queue pairs may share one CQ; the
// paper's MPI attaches every connection of a process to a single CQ. Its
// entries are threaded head to tail through nodes of the fabric's one
// pool, so a CQ owns no array that grows with its deepest burst: the
// fabric holds the world's peak of completions pending at once, not the
// sum of each CQ's, as a verbs CQ is one array sized at creation rather
// than one that doubles. Poll zeroes the node it frees, so a polled
// completion pins no buffer.
type CQ struct {
	fabric     *Fabric
	head, tail *cqEntry
	n          int
	notify     sim.Handler
	armed      bool
}

// push appends a completion and, if the CQ is armed, fires its notify
// handler as an event at the current time (one-shot). A consumer learns
// of completions only this way or by polling.
func (cq *CQ) push(wc WC) {
	e := cq.fabric.cqes.Get()
	e.WC = wc
	if cq.tail == nil {
		cq.head = e
	} else {
		cq.tail.next = e
	}
	cq.tail = e
	cq.n++
	if cq.armed {
		cq.armed = false
		eng := cq.fabric.eng
		eng.AtCall(eng.Now(), cq.notify, 0)
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
	if cq.n > 0 {
		eng := cq.fabric.eng
		eng.AtCall(eng.Now(), cq.notify, 0)
		return
	}
	cq.armed = true
}

// Poll removes and returns the oldest completion, if any: the WC is
// copied out of its node, which is zeroed and goes back to the fabric's
// pool.
func (cq *CQ) Poll() (wc WC, ok bool) {
	e := cq.head
	if e == nil {
		return
	}
	wc, ok = e.WC, true
	if cq.head = e.next; cq.head == nil {
		cq.tail = nil
	}
	cq.n--
	*e = cqEntry{}
	cq.fabric.cqes.Put(e)
	return
}

// Len reports how many completions are waiting.
func (cq *CQ) Len() int { return cq.n }

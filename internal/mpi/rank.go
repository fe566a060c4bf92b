package mpi

import (
	"fmt"

	"ibflow/internal/chdev"
	"ibflow/internal/debug"
	"ibflow/internal/mem"
	"ibflow/internal/sim"
)

// Wildcards for receive matching.
const (
	// AnySource matches a message from any rank.
	AnySource = -1
	// AnyTag matches a message with any tag.
	AnyTag = -1
)

// unexKind distinguishes entries in the unexpected-message queue.
type unexKind int

const (
	unexEager unexKind = iota
	unexRndv
)

// unexEntry is an arrived-but-unmatched message. A single queue holds both
// eager payloads and rendezvous announcements so matching respects arrival
// order, as MPI's non-overtaking rule requires.
type unexEntry struct {
	kind unexKind
	src  int
	tag  int
	comm uint16
	data []byte        // eager payload (owned copy)
	rndv *chdev.RndvIn // rendezvous in progress
}

// Rank is one MPI process: it owns the matching queues and implements the
// channel device's upcall interface.
type Rank struct {
	world      *World
	idx        int
	dev        *chdev.Device
	proc       sim.Proc // the rank's process, spawned in place by World.Run
	comm       Comm     // the world communicator, handed to the rank's main
	detached   sim.Time // Options.Settle: when the rank left finalize and detached its device
	unex       []unexEntry
	nextCommID uint16 // context ids handed out by Split

	// posted and postedTail are the ends of the posted-receive queue, in
	// post order, threaded through the requests (Request.next), so posting
	// and matching allocate nothing.
	posted, postedTail *Request

	// pending is the eager delivery in flight between DeliverEagerStart
	// and DeliverEagerDone (the device charges the payload copy between
	// the two upcalls; at most one delivery is in flight per rank).
	pending pendingEager

	// waitSet is what the rank's one blocking wait is on — a rank runs one
	// progress session at a time — in backing the rank owns, and allDone /
	// anyDone are the predicates over it, bound once (newRank): Wait,
	// Waitall, Waitany and Sendrecv build no closure per call, and a
	// caller's variadic request list does not escape. waitIdx is anyDone's
	// answer: the lowest-numbered completed request. quiescent is
	// finalize's predicate, the device's, bound once with it (NewWorld).
	waitSet          []*Request
	waitIdx          int
	allDone, anyDone func() bool
	quiescent        func() bool
}

// newRank makes rank idx of w, without its device.
func newRank(w *World, idx int) *Rank {
	r := &Rank{world: w, idx: idx}
	r.comm.r = r
	r.allDone, r.anyDone = r.waitSetDone, r.waitSetAny
	return r
}

// waitFor drives progress until pred — allDone or anyDone — holds over
// reqs. The set is cleared before the caller releases the requests.
func (r *Rank) waitFor(pred func() bool, reqs ...*Request) {
	r.waitSet = append(r.waitSet[:0], reqs...)
	r.dev.WaitProgress(&r.proc, pred)
	clear(r.waitSet)
}

func (r *Rank) waitSetDone() bool {
	for _, q := range r.waitSet {
		if !q.done {
			return false
		}
	}
	return true
}

func (r *Rank) waitSetAny() bool {
	r.waitIdx = -1
	for i, q := range r.waitSet {
		if q.done {
			r.waitIdx = i
			return true
		}
	}
	return false
}

// releaseReq returns a completed request to the world's pool. It is
// idempotent — a second Waitall over the same handles is a no-op, as it
// is in MPI — and keeps done/status readable until the box is taken again.
func (r *Rank) releaseReq(q *Request) {
	if q.owner == nil {
		return
	}
	debug.Assert(q.done, "mpi: rank %d releasing an incomplete request (tag %d)", r.idx, q.tag)
	q.buf = nil
	q.owner = nil
	r.world.reqs.Put(q)
}

// debugFreeMem asserts, in an ibdebug build, that no receive the rank
// posted and has not completed lands in the block being freed — one still
// waiting for its message, or one whose eager copy is still being charged.
// The device checks its own rendezvous (chdev.Device.FreeMem).
func (r *Rank) debugFreeMem(buf []byte) {
	if !debug.Enabled {
		return
	}
	for q := r.posted; q != nil; q = q.next {
		debug.Assert(!mem.Overlaps(buf, q.buf),
			"mpi: rank %d: FreeMem of a block a posted receive (source %d, tag %d) lands in", r.idx, q.src, q.tag)
	}
	if pe := r.pending; pe.matched {
		debug.Assert(!mem.Overlaps(buf, pe.req.buf),
			"mpi: rank %d: FreeMem of a block an eager message from rank %d is still landing in", r.idx, pe.st.Source)
	}
}

// pendingEager records a matched-or-queued eager message whose copy
// charge is still elapsing: the visible effect (request completion or
// unexpected-queue insertion) is applied in DeliverEagerDone.
type pendingEager struct {
	matched bool
	req     *Request  // matched: the receive to complete
	st      Status    // matched: its completion status
	entry   unexEntry // unmatched: the queue entry to push
}

func match(wantComm, comm uint16, wantSrc, wantTag, src, tag int) bool {
	return wantComm == comm &&
		(wantSrc == AnySource || wantSrc == src) &&
		(wantTag == AnyTag || wantTag == tag)
}

// post appends a receive that matched nothing unexpected to the posted
// queue.
func (r *Rank) post(req *Request) {
	if r.postedTail == nil {
		r.posted = req
	} else {
		r.postedTail.next = req
	}
	r.postedTail = req
}

// findPosted removes and returns the first posted receive matching
// (src, tag), or nil.
func (r *Rank) findPosted(src, tag int, comm uint16) *Request {
	var prev *Request
	for req := r.posted; req != nil; prev, req = req, req.next {
		if !match(req.comm, comm, int(req.src), int(req.tag), src, tag) {
			continue
		}
		if prev == nil {
			r.posted = req.next
		} else {
			prev.next = req.next
		}
		if r.postedTail == req {
			r.postedTail = prev
		}
		req.next = nil
		return req
	}
	return nil
}

// DeliverEagerStart implements chdev.Handler: match and copy now, apply
// the visible effects in DeliverEagerDone once the copy charge elapsed.
func (r *Rank) DeliverEagerStart(src, tag int, comm uint16, data []byte) {
	if req := r.findPosted(src, tag, comm); req != nil {
		if len(data) > len(req.buf) {
			panic(fmt.Sprintf("mpi: rank %d: %d-byte message truncates %d-byte receive (src %d tag %d)",
				r.idx, len(data), len(req.buf), src, tag))
		}
		copy(req.buf, data)
		r.pending = pendingEager{matched: true, req: req,
			st: Status{Source: src, Tag: tag, Len: len(data)}}
		return
	}
	r.pending = pendingEager{
		entry: unexEntry{kind: unexEager, src: src, tag: tag, comm: comm, data: r.stageUnex(data)}}
}

// stageUnex copies an unmatched eager payload into library-owned storage:
// a pooled buffer of the payload's size class when it fits (recycled when
// the matching receive consumes the entry), or a dedicated allocation for
// oversized self-sends, which bypass the wire and its size limit.
func (r *Rank) stageUnex(data []byte) []byte {
	pool := r.dev.Pool()
	if len(data) <= pool.BufSize() {
		buf := pool.GetN(len(data))
		copy(buf, data)
		return buf
	}
	owned := make([]byte, len(data))
	copy(owned, data)
	return owned
}

// unstageUnex recycles a consumed unexpected-eager payload. Pooled
// stagings are recognizable by their capacity, at most the wire size (an
// oversized fallback is always strictly larger).
func (r *Rank) unstageUnex(data []byte) {
	pool := r.dev.Pool()
	if cap(data) <= pool.BufSize() {
		pool.Put(data)
	}
}

// DeliverEagerDone implements chdev.Handler.
func (r *Rank) DeliverEagerDone() {
	pe := r.pending
	r.pending = pendingEager{}
	if pe.matched {
		pe.req.complete(pe.st)
		return
	}
	r.unex = append(r.unex, pe.entry)
}

// DeliverRndvStart implements chdev.Handler: accept in-band when a
// posted receive matches, otherwise queue the announcement and accept
// later from matchUnex.
func (r *Rank) DeliverRndvStart(in *chdev.RndvIn) ([]byte, bool) {
	if req := r.findPosted(in.Src, in.Tag, in.Comm); req != nil {
		if in.Len > len(req.buf) {
			panic(fmt.Sprintf("mpi: rank %d: %d-byte rendezvous truncates %d-byte receive",
				r.idx, in.Len, len(req.buf)))
		}
		in.UserData = req
		return req.buf, true
	}
	r.unex = append(r.unex, unexEntry{kind: unexRndv, src: in.Src, tag: in.Tag, comm: in.Comm, rndv: in})
	return nil, false
}

// DeliverRndvDone implements chdev.Handler.
func (r *Rank) DeliverRndvDone(in *chdev.RndvIn) {
	req := in.UserData.(*Request)
	req.complete(Status{Source: in.Src, Tag: in.Tag, Len: in.Len})
}

// SendDone implements chdev.Handler.
func (r *Rank) SendDone(token any) {
	token.(*Request).complete(Status{})
}

// matchUnex scans the unexpected queue for (src, tag) and attaches the
// receive request req to the first hit, completing eager matches
// immediately and accepting rendezvous ones. It reports whether it matched.
func (r *Rank) matchUnex(req *Request) bool {
	for i, e := range r.unex {
		if !match(req.comm, e.comm, int(req.src), int(req.tag), e.src, e.tag) {
			continue
		}
		r.unex = append(r.unex[:i], r.unex[i+1:]...)
		switch e.kind {
		case unexEager:
			if len(e.data) > len(req.buf) {
				panic(fmt.Sprintf("mpi: rank %d: %d-byte message truncates %d-byte receive",
					r.idx, len(e.data), len(req.buf)))
			}
			copy(req.buf, e.data)
			r.dev.ChargeCopy(&r.proc, len(e.data))
			n := len(e.data)
			r.unstageUnex(e.data)
			req.complete(Status{Source: e.src, Tag: e.tag, Len: n})
		case unexRndv:
			if e.rndv.Len > len(req.buf) {
				panic(fmt.Sprintf("mpi: rank %d: %d-byte rendezvous truncates %d-byte receive",
					r.idx, e.rndv.Len, len(req.buf)))
			}
			e.rndv.UserData = req
			r.dev.AcceptRndv(&r.proc, e.rndv, req.buf)
		}
		return true
	}
	return false
}

// probeUnex returns the status of the first unexpected message matching
// (src, tag) without consuming it.
func (r *Rank) probeUnex(src, tag int, comm uint16) (Status, bool) {
	for _, e := range r.unex {
		if match(comm, e.comm, src, tag, e.src, e.tag) {
			n := len(e.data)
			if e.kind == unexRndv {
				n = e.rndv.Len
			}
			return Status{Source: e.src, Tag: e.tag, Len: n}, true
		}
	}
	return Status{}, false
}

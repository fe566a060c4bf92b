package mpi

import (
	"fmt"

	"ibflow/internal/debug"
	"ibflow/internal/sim"
)

// Status describes a completed receive.
type Status struct {
	Source int
	Tag    int
	Len    int
}

// Request is a non-blocking operation handle. The boxes come from a pool
// on the world (its ranks are coroutines of one engine): Wait and Waitall
// release the handle once the operation completed (as MPI deallocates a
// request at MPI_Wait), and the next Isend/Irecv of any rank takes the
// box. The status and done flag survive release until the box is taken
// again, so the classic "Waitall, then read the status" pattern keeps
// working; holding a handle past that is the same use-after-free it would
// be in MPI. Test and Waitany never release (their MPI counterparts leave
// the request live); a request never waited on stays checked out, and its
// box goes when the world's chunk does.
type Request struct {
	done   bool
	isRecv bool
	buf    []byte
	src    int // matching spec for receives (world rank)
	tag    int
	comm   uint16
	owner  *Comm // for translating the status source to a comm rank
	status Status

	released bool // back in the pool; release is idempotent
}

func (r *Request) complete(st Status) {
	debug.Assert(!r.released, "mpi: completing a released request (tag %d)", r.tag)
	if r.done {
		panic("mpi: request completed twice")
	}
	r.done = true
	if r.isRecv {
		if r.owner != nil && st.Source >= 0 {
			st.Source = r.owner.localRank(st.Source)
		}
		r.status = st
	}
}

// Done reports whether the request completed.
func (r *Request) Done() bool { return r.done }

// Status returns the receive status; valid once Done.
func (r *Request) Status() Status { return r.status }

// Comm is a rank's handle on a communicator. The one World.Run passes in
// is MPI_COMM_WORLD; Split derives sub-communicators with their own rank
// numbering and isolated message matching (a wire-level context id). All
// methods must be called from the rank's own process.
type Comm struct {
	r       *Rank
	id      uint16
	members []int // comm rank -> world rank; nil means the world comm
	myrank  int   // my rank within this comm (== r.idx for the world)
	tid     int   // logical worker thread issuing sends through this view
}

// Thread returns a view of the communicator bound to logical worker
// thread tid. Threads are simulated — a rank still runs on one process
// and one goroutine — but the channel device's endpoint-selection
// policy uses the thread id to multiplex sends over a peer's endpoint
// set (sticky: endpoint tid mod Endpoints). With a single endpoint per
// pair the view behaves identically to the parent communicator.
func (c *Comm) Thread(tid int) *Comm {
	if tid < 0 {
		panic(fmt.Sprintf("mpi: negative logical thread id %d", tid))
	}
	v := *c
	v.tid = tid
	return &v
}

// Rank returns the calling process's rank within this communicator.
func (c *Comm) Rank() int {
	if c.members == nil {
		return c.r.idx
	}
	return c.myrank
}

// Size returns the communicator size.
func (c *Comm) Size() int {
	if c.members == nil {
		return c.r.world.Size()
	}
	return len(c.members)
}

// worldRank translates a communicator rank to a world rank.
func (c *Comm) worldRank(local int) int {
	if local == AnySource || c.members == nil {
		return local
	}
	return c.members[local]
}

// localRank translates a world rank to this communicator's numbering.
func (c *Comm) localRank(world int) int {
	if c.members == nil {
		return world
	}
	for i, w := range c.members {
		if w == world {
			return i
		}
	}
	return -1
}

// Time returns the current virtual time.
func (c *Comm) Time() sim.Time { return c.r.proc.Now() }

// Compute charges d of computation to the virtual clock. No communication
// progress happens during computation — the MPI library only progresses
// inside MPI calls, which is exactly the application-bypass limitation of
// user-level flow control the paper discusses.
func (c *Comm) Compute(d sim.Time) { c.r.proc.Sleep(d) }

// World returns the job this communicator belongs to.
func (c *Comm) World() *World { return c.r.world }

// AllocMem returns n zeroed bytes for communication (MPI_Alloc_mem) from
// the rank's allocator: a block FreeMem returned, or a fresh one. It
// charges no virtual time.
func (c *Comm) AllocMem(n int) []byte { return c.r.dev.AllocMem(n) }

// FreeMem returns a block AllocMem handed out (MPI_Free_mem). It ends the
// block's registration identity: every pin-down cache entry inside it is
// deregistered, so when AllocMem hands the bytes out again they register
// exactly as a fresh allocation would. Every request over any of its bytes
// must have completed; under ibdebug a posted receive or a live rendezvous
// over it panics here. It charges no virtual time.
func (c *Comm) FreeMem(buf []byte) {
	c.r.debugFreeMem(buf)
	c.r.dev.FreeMem(buf)
}

// Isend starts a non-blocking send of data to dst. The data buffer must
// stay untouched until the request completes.
func (c *Comm) Isend(dst, tag int, data []byte) *Request {
	return c.isend(dst, tag, data, false)
}

func (c *Comm) isend(dst, tag int, data []byte, blocking bool) *Request {
	req := c.r.world.reqs.Get()
	world := c.worldRank(dst)
	if world == c.r.idx {
		c.selfSend(tag, data)
		req.done = true
		return req
	}
	c.r.dev.BindThread(c.tid)
	c.r.dev.Send(c.r.proc, world, tag, c.id, data, req, blocking)
	return req
}

// selfSend delivers a message to the local rank without the network. It
// runs on the rank's own process, so the copy charge that the device's
// progress machine would stage is paid here directly.
func (c *Comm) selfSend(tag int, data []byte) {
	c.r.DeliverEagerStart(c.r.idx, tag, c.id, data)
	c.r.dev.ChargeCopy(c.r.proc, len(data))
	c.r.DeliverEagerDone()
}

// Irecv posts a non-blocking receive into buf for a message matching
// (src, tag); src may be AnySource and tag AnyTag.
func (c *Comm) Irecv(src, tag int, buf []byte) *Request {
	req := c.r.world.reqs.Get()
	req.isRecv, req.buf, req.src, req.tag, req.comm, req.owner =
		true, buf, c.worldRank(src), tag, c.id, c
	if c.r.matchUnex(req) {
		return req
	}
	c.r.postedRecvs = append(c.r.postedRecvs, req)
	return req
}

// Send is the blocking standard-mode send: it returns when the user buffer
// is reusable (eagerly buffered for small messages; after the rendezvous
// data transfer for large or credit-starved ones — a starved blocking send
// demotes to rendezvous rather than queueing, as the paper describes).
func (c *Comm) Send(dst, tag int, data []byte) {
	c.Wait(c.isend(dst, tag, data, true))
}

// Ssend is the synchronous-mode send (MPI_Ssend): it completes only
// after the receiver has matched the message, which this implementation
// guarantees by always using the rendezvous protocol.
func (c *Comm) Ssend(dst, tag int, data []byte) {
	c.Wait(c.Issend(dst, tag, data))
}

// Issend starts a non-blocking synchronous-mode send.
func (c *Comm) Issend(dst, tag int, data []byte) *Request {
	req := c.r.world.reqs.Get()
	world := c.worldRank(dst)
	if world == c.r.idx {
		// Self sends are matched locally and immediately.
		c.selfSend(tag, data)
		req.done = true
		return req
	}
	c.r.dev.BindThread(c.tid)
	c.r.dev.SendSync(c.r.proc, world, tag, c.id, data, req)
	return req
}

// Bsend is the buffered-mode send (MPI_Bsend): the message is copied into
// library-owned storage and the call returns immediately; delivery
// proceeds in the background (and is flushed by finalize at the latest).
func (c *Comm) Bsend(dst, tag int, data []byte) {
	owned := make([]byte, len(data))
	copy(owned, data)
	c.r.dev.ChargeCopy(c.r.proc, len(data)) // the buffering copy
	c.isend(dst, tag, owned, false)
}

// Rsend is the ready-mode send (MPI_Rsend). Like many MPI
// implementations, this one treats it as a standard send: the
// receiver-posted precondition enables no extra optimization on this
// channel design.
func (c *Comm) Rsend(dst, tag int, data []byte) {
	c.Send(dst, tag, data)
}

// Recv blocks until a matching message lands in buf.
func (c *Comm) Recv(src, tag int, buf []byte) Status {
	return c.Wait(c.Irecv(src, tag, buf))
}

// Wait blocks until req completes, driving communication progress. The
// request is released for reuse, as MPI_Wait deallocates the handle.
func (c *Comm) Wait(req *Request) Status {
	c.r.waitFor(c.r.allDone, req)
	st := req.status
	c.r.releaseReq(req)
	return st
}

// Test polls req without blocking, making one progress pass.
func (c *Comm) Test(req *Request) (Status, bool) {
	if !req.done {
		c.r.dev.Poke(c.r.proc)
	}
	return req.status, req.done
}

// Waitall blocks until every request completes, then releases them all
// for reuse (as MPI_Waitall deallocates its handles).
func (c *Comm) Waitall(reqs ...*Request) {
	c.r.waitFor(c.r.allDone, reqs...)
	for _, r := range reqs {
		c.r.releaseReq(r)
	}
}

// Waitany blocks until at least one of reqs completes and returns the
// index of a completed request (the lowest-numbered one).
func (c *Comm) Waitany(reqs ...*Request) int {
	c.r.waitFor(c.r.anyDone, reqs...)
	return c.r.waitIdx
}

// Sendrecv performs a simultaneous send and receive, the classic
// deadlock-free exchange primitive.
func (c *Comm) Sendrecv(dst, stag int, sdata []byte, src, rtag int, rbuf []byte) Status {
	rr := c.Irecv(src, rtag, rbuf)
	sr := c.Isend(dst, stag, sdata)
	c.r.waitFor(c.r.allDone, rr, sr)
	st := rr.status
	c.r.releaseReq(rr)
	c.r.releaseReq(sr)
	return st
}

// Probe blocks until a message matching (src, tag) is available without
// receiving it, and returns its envelope.
func (c *Comm) Probe(src, tag int) Status {
	var st Status
	world := c.worldRank(src)
	c.r.dev.WaitProgress(c.r.proc, func() bool {
		s, ok := c.r.probeUnex(world, tag, c.id)
		if ok {
			st = s
		}
		return ok
	})
	st.Source = c.localRank(st.Source)
	return st
}

// Abort panics the simulation with a rank-stamped message (MPI_Abort).
func (c *Comm) Abort(why string) {
	panic(fmt.Sprintf("mpi: rank %d aborted: %s", c.r.idx, why))
}

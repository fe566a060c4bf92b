package mpi

import (
	"runtime"
	"testing"
	"unsafe"

	"ibflow/internal/core"
	"ibflow/internal/debug"
)

// The blocking waits build nothing per call: the rank owns the wait set
// and the predicate over it (Rank.waitFor), the variadic request list
// stays on the caller's stack, requests — from the world's one pool — and
// eager buffers are recycled. Two ranks exchanging small messages in a
// Sendrecv loop, then in an Isend/Irecv/Waitall(a, b) loop, then through
// Waitany, then through two Waits, allocate nothing at all once warm —
// where each call cost a closure (and Waitall its escaped argument
// slice) — and the world never holds more boxes than are in flight.
func TestMultiWaitsAllocateNothing(t *testing.T) {
	const warm, calls = 200, 2000
	var sendrecv, waitall, waitany, wait uint64
	w := run(t, 2, core.Static(10), func(c *Comm) {
		me, peer := c.Rank(), 1-c.Rank()
		sbuf, rbuf := make([]byte, 8), make([]byte, 8)
		phase := func(count *uint64, call func(i int)) {
			var before, after runtime.MemStats
			for i := 0; i < warm+calls; i++ {
				if i == warm && me == 0 {
					runtime.ReadMemStats(&before)
				}
				sbuf[0] = byte(i)
				call(i)
				if rbuf[0] != byte(i) {
					c.Abort("payload lost")
				}
			}
			if me == 0 {
				runtime.ReadMemStats(&after)
				*count = after.Mallocs - before.Mallocs
			}
		}
		phase(&sendrecv, func(i int) { c.Sendrecv(peer, 1, sbuf, peer, 1, rbuf) })
		phase(&waitall, func(i int) {
			a, b := c.Irecv(peer, 2, rbuf), c.Isend(peer, 2, sbuf)
			c.Waitall(a, b)
		})
		phase(&waitany, func(i int) {
			a, b := c.Irecv(peer, 3, rbuf), c.Isend(peer, 3, sbuf)
			if idx := c.Waitany(a, b); idx < 0 || idx > 1 {
				c.Abort("Waitany returned no request")
			}
			c.Waitall(a, b) // the other one, and release both
		})
		phase(&wait, func(i int) {
			a, b := c.Irecv(peer, 4, rbuf), c.Isend(peer, 4, sbuf)
			c.Wait(a)
			c.Wait(b)
		})
	})
	t.Logf("objects allocated by both ranks over %d calls each: Sendrecv %d, Waitall(a, b) %d, Waitany %d, Wait twice %d",
		calls, sendrecv, waitall, waitany, wait)
	if got := w.reqs.Carved(); got > 8 {
		t.Errorf("the world carved %d request boxes for two ranks with two requests in flight each", got)
	}
	if debug.Enabled {
		return // an ibdebug build's assertions box their arguments
	}
	if sendrecv != 0 || waitall != 0 || waitany != 0 || wait != 0 {
		t.Errorf("Sendrecv allocates %d, Waitall(a, b) %d, Waitany %d and two Waits %d objects over %d calls, want 0",
			sendrecv, waitall, waitany, wait, calls)
	}
}

// The wait set is cleared when the wait ends: the rank does not keep a
// completed call's requests (and, through them, user buffers) reachable.
func TestWaitSetCleared(t *testing.T) {
	run(t, 2, core.Static(10), func(c *Comm) {
		peer := 1 - c.Rank()
		a, b := c.Irecv(peer, 0, make([]byte, 4)), c.Isend(peer, 0, []byte("ping"))
		c.Waitall(a, b)
		for _, q := range c.r.waitSet[:cap(c.r.waitSet)] {
			if q != nil {
				c.Abort("wait set still holds a request after Waitall")
			}
		}
	})
}

// A request is seven words: a 1 024-rank storm keeps a hundred thousand
// boxes in its world's pool, carved 64 to a chunk, and 64 requests of
// 56 B take the 4 096-B size class, as there is no 3 584-B class (at
// 48 B a chunk was exactly the 3 072-B class, at 72 B it took 4 864).
// The seventh word is the posted-receive queue's link (Request.next),
// which lets posting and matching allocate nothing. The source and the
// tag are 32 bits, as the wire carries them, and share a word; they are
// the matching spec until a receive completes and its status after, so
// the status adds only its length; the communicator and the two flags
// share that word. A request is released when its owner is cleared, so
// that takes no flag of its own.
func TestRequestSize(t *testing.T) {
	if got := unsafe.Sizeof(Request{}); got != 56 {
		t.Errorf("unsafe.Sizeof(Request{}) = %d, want 56", got)
	}
}

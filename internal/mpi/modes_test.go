package mpi

import (
	"testing"

	"ibflow/internal/core"
	"ibflow/internal/sim"
)

func TestSsendWaitsForMatch(t *testing.T) {
	// Classic synchronous-mode semantics test: the receiver posts its
	// receive late; Ssend must not return before then, while a standard
	// small Send returns immediately (eagerly buffered).
	const delay = 150 * sim.Microsecond
	var stdDone, syncDone sim.Time
	run(t, 2, core.Static(100), func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 1, []byte("standard"))
			stdDone = c.Time()
			c.Ssend(1, 2, []byte("sync"))
			syncDone = c.Time()
		} else {
			c.Compute(delay)
			buf := make([]byte, 16)
			c.Recv(0, 1, buf)
			c.Recv(0, 2, buf)
		}
	})
	if stdDone >= delay {
		t.Errorf("standard send blocked until %v; should return eagerly", stdDone)
	}
	if syncDone < delay {
		t.Errorf("Ssend returned at %v, before the receiver matched at %v", syncDone, delay)
	}
}

func TestSsendSmallUsesRendezvous(t *testing.T) {
	w := run(t, 2, core.Static(100), func(c *Comm) {
		if c.Rank() == 0 {
			c.Ssend(1, 0, []byte("tiny"))
		} else {
			c.Recv(0, 0, make([]byte, 8))
		}
	})
	// One 4-byte message, yet the wire carried a rendezvous handshake:
	// RTS + CTS + RDMA write + FIN = 4 transport messages minimum.
	if st := w.Stats(); st.MsgsSent < 4 {
		t.Errorf("Ssend of a small message sent only %d transport messages; want a handshake", st.MsgsSent)
	}
}

func TestBsendBufferImmediatelyReusable(t *testing.T) {
	run(t, 2, core.Static(4), func(c *Comm) {
		if c.Rank() == 0 {
			data := []byte("first")
			c.Bsend(1, 0, data)
			copy(data, "XXXXX") // clobber right away: receiver must still see "first"
			c.Bsend(1, 0, []byte("again"))
		} else {
			buf := make([]byte, 8)
			st := c.Recv(0, 0, buf)
			if string(buf[:st.Len]) != "first" {
				c.Abort("Bsend did not buffer the payload")
			}
			c.Recv(0, 0, buf)
		}
	})
}

// TestBsendChargesOneCopy pins what Bsend costs: the same virtual time
// and the same engine events as charging a 1.6 GB/s copy with Compute and
// then sending the copy. A zero-length Bsend still sleeps for zero time,
// so it fires the same event as Compute(0).
func TestBsendChargesOneCopy(t *testing.T) {
	for _, n := range []int{0, 5, 4096} {
		send := func(bsend bool) (sim.Time, uint64) {
			w := run(t, 2, core.Static(4), func(c *Comm) {
				data := make([]byte, n)
				if c.Rank() == 1 {
					c.Recv(0, 0, data)
					return
				}
				if bsend {
					c.Bsend(1, 0, data)
				} else {
					c.Compute(sim.Time(float64(n) / 1.6e9 * 1e9))
					c.isend(1, 0, append([]byte(nil), data...), false)
				}
			})
			return w.Engine().Now(), w.Engine().EventsFired()
		}
		gotT, gotE := send(true)
		wantT, wantE := send(false)
		if gotT != wantT || gotE != wantE {
			t.Errorf("Bsend of %d bytes ends at %v after %d events; copy then send ends at %v after %d", n, gotT, gotE, wantT, wantE)
		}
	}
}

func TestRsendBehavesAsStandard(t *testing.T) {
	run(t, 2, core.Static(10), func(c *Comm) {
		if c.Rank() == 1 {
			req := c.Irecv(0, 3, make([]byte, 4))
			c.Send(0, 9, []byte("go")) // tell the sender the recv is posted
			c.Wait(req)
		} else {
			c.Recv(1, 9, make([]byte, 2))
			c.Rsend(1, 3, []byte("rdy"))
		}
	})
}

func TestIssendSelf(t *testing.T) {
	run(t, 1, core.Static(4), func(c *Comm) {
		req := c.Irecv(0, 0, make([]byte, 4))
		s := c.Issend(0, 0, []byte("me"))
		c.Waitall(req, s)
	})
}

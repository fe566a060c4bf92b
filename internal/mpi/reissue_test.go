package mpi

import (
	"fmt"
	"testing"

	"ibflow/internal/core"
	"ibflow/internal/sim"
	"ibflow/internal/trace"
)

// TestFrozenQPQueuesLaterSends: with no RNR retry budget, the sender's
// second message meets the receiver's one posted buffer still full — the
// receiver is computing — so the budget runs out and the QP freezes
// until the device re-issues its stream. Sends posted after that
// exhaustion is retired queue on the frozen QP behind the failed one,
// never in the software backlog, and every message arrives in post order.
func TestFrozenQPQueuesLaterSends(t *testing.T) {
	const before, after = 4, 4
	opts := DefaultOptions(core.Hardware(1))
	opts.IB.RNRRetryCount = 0
	opts.Chan.Debug = true
	opts.Settle = true
	opts.TimeLimit = 100 * sim.Millisecond
	w := NewWorld(2, opts)
	err := w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			send := func(i int) { c.Wait(c.Isend(1, 0, []byte{byte(i)})) }
			for i := range before {
				send(i)
			}
			d := c.r.dev
			d.WaitProgress(c.r.proc, func() bool { return d.Stats().Reissues > 0 })
			for i := range after {
				send(before + i)
			}
			return
		}
		c.Compute(500 * sim.Microsecond)
		buf := make([]byte, 1)
		for i := range before + after {
			c.Recv(0, 0, buf)
			if int(buf[0]) != i {
				c.Abort(fmt.Sprintf("message %d arrived as number %d", buf[0], i))
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	st := w.Stats()
	if st.RNRExhausted == 0 || st.RNRExhausted != st.Reissues {
		t.Errorf("RNR exhaustions %d, re-issues %d: want equal and at least 1", st.RNRExhausted, st.Reissues)
	}
	if st.Backlogged != 0 {
		t.Errorf("%d sends waited in the backlog, want 0: a frozen QP queues them itself", st.Backlogged)
	}
	if err := w.Audit(); err != nil {
		t.Error(err)
	}
}

// TestReissuesCountPerFrozenRequest: two different requests on one
// connection freeze in turn — the receiver computes through each of the
// sender's two batches, the second only after it acknowledged the first —
// (messages behind a request that thawed may freeze once more, as the
// one posted buffer is slow to come back), and each freeze's Reissued
// trace args count that request's re-issues from 1. A QP completes in
// post order and fails only its head, so the device's count belongs to
// the head and a success resets it.
func TestReissuesCountPerFrozenRequest(t *testing.T) {
	const batch = 4
	tr := trace.NewBuffer(1 << 12)
	opts := DefaultOptions(core.Hardware(1))
	opts.IB.RNRRetryCount = 0
	opts.Chan.Debug = true
	opts.Chan.Tracer = tr
	opts.Settle = true
	opts.TimeLimit = 100 * sim.Millisecond
	w := NewWorld(2, opts)
	err := w.Run(func(c *Comm) {
		buf := make([]byte, 1)
		if c.Rank() == 0 {
			for i := range 2 * batch {
				if i == batch {
					c.Recv(1, 1, buf) // the receiver took the first batch
				}
				c.Wait(c.Isend(1, 0, []byte{byte(i)}))
			}
			return
		}
		for i := range 2 * batch {
			if i%batch == 0 {
				if i > 0 {
					c.Send(0, 1, buf)
				}
				c.Compute(500 * sim.Microsecond)
			}
			c.Recv(0, 0, buf)
			if int(buf[0]) != i {
				c.Abort(fmt.Sprintf("message %d arrived as number %d", buf[0], i))
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	var args []int64
	for _, e := range tr.Events() {
		if e.Kind == trace.Reissued {
			args = append(args, e.Arg)
		}
	}
	freezes := 0
	for i, a := range args {
		switch {
		case a == 1:
			freezes++
		case i == 0 || a != args[i-1]+1:
			t.Fatalf("Reissued args %v: %d follows %v, want the count of one request from 1", args, a, args[:i])
		}
	}
	if freezes < 2 {
		t.Errorf("Reissued args %v: %d frozen requests, want one in each batch at least", args, freezes)
	}
	if st := w.Stats(); uint64(len(args)) != st.Reissues {
		t.Errorf("%d Reissued events, %d re-issues counted", len(args), st.Reissues)
	}
	if err := w.Audit(); err != nil {
		t.Error(err)
	}
}

package mpi

import (
	"fmt"
	"testing"

	"ibflow/internal/core"
	"ibflow/internal/sim"
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

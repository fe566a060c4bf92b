package mpi

import (
	"errors"
	"slices"
	"testing"

	"ibflow/internal/core"
	"ibflow/internal/sim"
	"ibflow/internal/trace"
)

// TestSettleReportsDeadlock: settlement must not hide a deadlock. Rank 0
// finishes and settles while rank 1 blocks in a receive nobody sends;
// the drained event queue has to surface that as a DeadlockError naming
// rank 1, exactly as it does without Settle. (A settle phase that polls
// on a timer keeps the queue alive forever instead; the time limit is
// only there so that regression fails rather than hangs.)
func TestSettleReportsDeadlock(t *testing.T) {
	opts := DefaultOptions(core.Static(10))
	opts.Settle = true
	opts.TimeLimit = 50 * sim.Millisecond
	w := NewWorld(2, opts)
	err := w.Run(func(c *Comm) {
		if c.Rank() == 1 {
			c.Recv(0, 0, make([]byte, 4)) // never sent
		}
	})
	var dl *sim.DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("err = %v after %d events, want DeadlockError", err, w.Engine().EventsFired())
	}
	if len(dl.Blocked) != 1 || dl.Blocked[0] != "rank1" {
		t.Errorf("blocked = %v, want [rank1]", dl.Blocked)
	}
}

// TestSettleLeavesFinalizePrefixAlone pins what Settle may not touch:
// until the first rank leaves finalize there is nothing to settle, so
// the Settle-on and Settle-off runs of every semantic cell must agree on
// when that happens and on every trace event before it. It holds for any
// settlement mechanism, so it reads the same before and after one is
// replaced.
func TestSettleLeavesFinalizePrefixAlone(t *testing.T) {
	const seed = 0x5eed7
	for _, cell := range semanticCells() {
		on, err := faultTorture(cell.spec, seed, true)
		if err != nil {
			t.Fatalf("%s: %v", cell.name, err)
		}
		off, err := faultTorture(cell.spec, seed, false)
		if err != nil {
			t.Fatalf("%s-nosettle: %v", cell.name, err)
		}
		if on.firstExit != off.firstExit {
			t.Errorf("%s: first rank left finalize at %v settled, %v unsettled",
				cell.name, on.firstExit, off.firstExit)
			continue
		}
		before := func(evs []trace.Event) []trace.Event {
			var out []trace.Event
			for _, e := range evs {
				if e.T < off.firstExit {
					out = append(out, e)
				}
			}
			return out
		}
		a, b := before(on.events), before(off.events)
		if len(b) == 0 {
			t.Errorf("%s: no trace event before the first finalize exit at %v", cell.name, off.firstExit)
		}
		if !slices.Equal(a, b) {
			t.Errorf("%s: the %d settled and %d unsettled trace events before the first finalize exit differ",
				cell.name, len(a), len(b))
		}
	}
}

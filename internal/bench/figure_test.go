package bench

import (
	"fmt"
	"testing"

	"ibflow/internal/core"
	"ibflow/internal/golden"
	"ibflow/internal/mpi"
)

// The figure goldens pin the storm cells, one number per line of
// testdata/figure.golden, each line `cell name value`: for every scheme
// at the quick sweep's provisioning, an 8-rank all-to-all storm's
// makespan, each rank's receive-buffer high-water mark and the world's
// non-zero device counters by field name. A change in simulated
// behaviour moves the lines of the numbers it moves; a counter added,
// renamed or deleted while zero moves none. `make goldens` re-pins the
// file. Host-side quantities (wall clock, heap, goroutines) are absent:
// they measure the simulator, not the simulated machine.

// allToAllStorm is the storm cells' rank main: every rank exchanges six
// 256-byte messages with every other rank, posting all its receives and
// then all its sends in ascending-peer order — an 8-rank incast on every
// rank at once, where each scheme's credit and buffer policy shows. (The
// scaling sweep's scalingStorm posts in stride order instead.)
func allToAllStorm(c *mpi.Comm) {
	const msgs, size = 6, 256
	me, n := c.Rank(), c.Size()
	var reqs []*mpi.Request
	for p := 0; p < n; p++ {
		for m := 0; m < msgs && p != me; m++ {
			reqs = append(reqs, c.Irecv(p, m, make([]byte, size)))
		}
	}
	for p := 0; p < n; p++ {
		for m := 0; m < msgs && p != me; m++ {
			reqs = append(reqs, c.Isend(p, m, make([]byte, size)))
		}
	}
	c.Waitall(reqs...)
}

// stormLines runs the 8-rank storm under fc and appends its cell.
func stormLines(t *testing.T, b []byte, fc core.Params) []byte {
	s := mpi.Spec{Ranks: 8, Scheme: fc}
	w := newWorld(s, nil)
	if err := w.Run(allToAllStorm); err != nil {
		t.Fatalf("storm %v: %v", s, err)
	}
	cell := "storm-" + fc.Kind.String()
	b = fmt.Appendf(b, "%s makespan_ns %d\n", cell, int64(w.Time()))
	for i := range s.Ranks {
		b = fmt.Appendf(b, "%s rank%d.BufBytesHWM %d\n", cell, i, w.RankStats(i).BufBytesHWM)
	}
	return golden.Fields(b, cell, w.Stats())
}

func TestFigureGoldens(t *testing.T) {
	b := []byte("# cell name value (TestFigureGoldens; `make goldens` re-pins)\n")
	for _, fc := range smokeDoc(0, 0).Schemes() {
		b = stormLines(t, append(b, '\n'), fc)
	}
	golden.Check(t, "testdata/figure.golden", b)
}

package nas

import (
	"runtime"
	"testing"

	"ibflow/internal/core"
	"ibflow/internal/debug"
	"ibflow/internal/mpi"
)

// TestKernelAllocBudget is the NAS layer's allocation gate: what one
// class-W world of each kernel allocates inside World.Run — objects and
// bytes — at the repo benchmark's nas_mix geometry under Static(1) (8
// ranks, 16 for BT/SP at two per node). Communication buffers come from
// the ranks' allocators (Comm.AllocMem) and are recycled, so what is left
// is each kernel's scratch, the transport's pools and the first pass
// through every free list. The budgets are the measured figures plus
// about 10 %; a kernel that goes back to a fresh buffer per message or
// per transpose fails its byte budget. The counters are process-wide, so
// no test in this package may call t.Parallel. Under ibdebug the
// assertions allocate, so that build skips the gate.
func TestKernelAllocBudget(t *testing.T) {
	if debug.Enabled {
		t.Skip("ibdebug assertions allocate on the message path")
	}
	// Measured on amd64, objects / bytes (with a fresh buffer per message,
	// before the kernels took theirs from AllocMem, in parentheses): IS 1 047 / 969 KB (1 221 / 2 710 KB), FT 976 / 2 241 KB
	// (1 088 / 4 959 KB), LU 672 / 1 007 KB (797 / 1 386 KB), CG 572 /
	// 830 KB (2 980 / 1 845 KB), MG 721 / 722 KB (3 190 / 1 592 KB), BT 996 /
	// 1 114 KB (1 474 / 2 246 KB), SP 1 002 / 1 048 KB (5 843 / 3 025 KB).
	budgets := map[string]struct{ objs, bytes uint64 }{
		"IS": {1150, 1_070_000},
		"FT": {1080, 2_470_000},
		"LU": {740, 1_110_000},
		"CG": {630, 915_000},
		"MG": {795, 795_000},
		"BT": {1100, 1_230_000},
		"SP": {1100, 1_155_000},
	}
	for _, app := range Apps() {
		n := 8
		opts := mpi.DefaultOptions(core.Static(1))
		if app.Name == "BT" || app.Name == "SP" {
			n, opts.RanksPerNode = 16, 2
		}
		w := mpi.NewWorld(n, opts)
		var failed error
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := w.Run(func(c *mpi.Comm) {
			if err := app.Run(c, ClassW); err != nil {
				failed = err
			}
		})
		runtime.ReadMemStats(&after)
		if err != nil || failed != nil {
			t.Fatalf("%s: %v %v", app.Name, err, failed)
		}
		objs, bytes := after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
		b := budgets[app.Name]
		t.Logf("%s: %d objects, %d B per class-W world (budget %d / %d)", app.Name, objs, bytes, b.objs, b.bytes)
		if objs > b.objs || bytes > b.bytes {
			t.Errorf("%s: a class-W world allocates %d objects and %d B, want <= %d and <= %d",
				app.Name, objs, bytes, b.objs, b.bytes)
		}
	}
}

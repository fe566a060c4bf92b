package mpi

import (
	"errors"
	"runtime"
	"testing"

	"ibflow/internal/core"
	"ibflow/internal/sim"
)

// The goroutine-flatness regression tests pin the payoff of the
// goroutine-to-handler migration: a world's goroutine count is its rank
// mains plus a small constant — no progress daemons, no per-connection
// or per-device drivers — and a rank's coroutine dispatch count depends
// on its own traffic, not on the size of the world around it. Before
// the migration both grew with rank count, which is what capped worlds
// at a few dozen ranks.

// flatnessSchemes are the five flow-control schemes, at the scaling
// benchmark's provisioning.
func flatnessSchemes() []core.Params {
	return []core.Params{
		core.Hardware(8),
		core.Static(8),
		core.Dynamic(8, 64),
		core.Shared(16, 96),
		core.RDMA(8, 1024),
	}
}

// goroutineOverhead builds an n-rank world under fc, runs a neighbor
// storm, and returns the maximum runtime.NumGoroutine observed at
// Waitall entry minus n. The last rank to reach Waitall samples while
// every rank main is live (each needs its peers' messages to get past
// Waitall), so the sample covers the whole world; ranks run one at a
// time inside the event loop, so the shared write is race-free.
func goroutineOverhead(t *testing.T, fc core.Params, n int) int {
	t.Helper()
	return goroutineOverheadOpts(t, DefaultOptions(fc), n)
}

// goroutineOverheadOpts is goroutineOverhead with full control of the
// world options, for variants (endpoint sets) that must stay flat too.
func goroutineOverheadOpts(t *testing.T, opts Options, n int) int {
	t.Helper()
	fc := opts.FC
	const msgs, size, fanout = 4, 256, 4
	hwm := 0
	w := NewWorld(n, opts)
	err := w.Run(func(c *Comm) {
		me := c.Rank()
		var reqs []*Request
		for j := 1; j <= fanout; j++ {
			src := ((me-j)%n + n) % n
			for m := 0; m < msgs; m++ {
				reqs = append(reqs, c.Irecv(src, m, make([]byte, size)))
			}
		}
		for j := 1; j <= fanout; j++ {
			dst := (me + j) % n
			for m := 0; m < msgs; m++ {
				reqs = append(reqs, c.Isend(dst, m, make([]byte, size)))
			}
		}
		if g := runtime.NumGoroutine(); g > hwm {
			hwm = g
		}
		c.Waitall(reqs...)
	})
	if err != nil {
		t.Fatalf("%v at %d ranks: %v", fc.Kind, n, err)
	}
	if hwm < n {
		t.Fatalf("%v at %d ranks: sampled %d goroutines, fewer than the rank mains", fc.Kind, n, hwm)
	}
	return hwm - n
}

// TestGoroutineFlatness asserts that growing a world from 16 to 64
// ranks adds exactly the 48 extra rank mains and nothing else: the
// overhead beyond rank mains (test harness, engine, runtime background
// goroutines) is a small constant independent of rank count, for every
// scheme. A per-rank daemon would show up here as overhead growing with
// n.
func TestGoroutineFlatness(t *testing.T) {
	for _, fc := range flatnessSchemes() {
		small := goroutineOverhead(t, fc, 16)
		large := goroutineOverhead(t, fc, 64)
		if large > small+2 {
			t.Errorf("%v: goroutine overhead grew with world size: %d at 16 ranks, %d at 64 ranks",
				fc.Kind, small, large)
		}
		if large > 12 {
			t.Errorf("%v: goroutine overhead %d at 64 ranks, want a small constant (<= 12)",
				fc.Kind, large)
		}
	}
}

// TestGoroutineFlatnessEndpoints repeats the flatness contract with a
// four-endpoint set per rank pair: endpoints multiply QPs and scheme
// state, but they are plain data in the progress machine — they must
// not add a single goroutine, at any world size.
func TestGoroutineFlatnessEndpoints(t *testing.T) {
	for _, fc := range flatnessSchemes() {
		opts := DefaultOptions(fc)
		opts.Chan.Endpoints = 4
		small := goroutineOverheadOpts(t, opts, 16)
		opts = DefaultOptions(fc)
		opts.Chan.Endpoints = 4
		large := goroutineOverheadOpts(t, opts, 64)
		if large > small+2 {
			t.Errorf("%v: endpoint-set goroutine overhead grew with world size: %d at 16 ranks, %d at 64 ranks",
				fc.Kind, small, large)
		}
		if large > 12 {
			t.Errorf("%v: endpoint-set goroutine overhead %d at 64 ranks, want a small constant (<= 12)",
				fc.Kind, large)
		}
	}
}

// receiverDispatches runs an n-rank world in which rank 1 sends msgs
// eager messages to rank 0 and everyone else is idle, returning how
// many coroutine dispatches rank 0's receive loop consumed.
func receiverDispatches(t *testing.T, fc core.Params, n, msgs int) uint64 {
	t.Helper()
	var delta uint64
	w := NewWorld(n, DefaultOptions(fc))
	err := w.Run(func(c *Comm) {
		buf := make([]byte, 256)
		switch c.Rank() {
		case 0:
			before := c.r.proc.Dispatches()
			for m := 0; m < msgs; m++ {
				c.Recv(1, m, buf)
			}
			delta = c.r.proc.Dispatches() - before
		case 1:
			for m := 0; m < msgs; m++ {
				c.Send(0, m, buf)
			}
		}
	})
	if err != nil {
		t.Fatalf("%v at %d ranks: %v", fc.Kind, n, err)
	}
	return delta
}

// TestReceiverDispatchFlat asserts the per-rank analogue of goroutine
// flatness: a pure receiver is woken per message it handles, not per
// rank in the world. The progress engine runs as a bound CQ handler
// between wakes, so idle connections cost the receiving coroutine
// nothing — its dispatch count at 32 ranks equals its count at 8, and
// stays linear in the message count.
func TestReceiverDispatchFlat(t *testing.T) {
	const msgs = 24
	for _, fc := range flatnessSchemes() {
		small := receiverDispatches(t, fc, 8, msgs)
		large := receiverDispatches(t, fc, 32, msgs)
		if large != small {
			t.Errorf("%v: receiver dispatches depend on world size: %d at 8 ranks, %d at 32 ranks",
				fc.Kind, small, large)
		}
		// Linear in traffic: doubling the messages at most doubles the
		// dispatches (plus a constant for loop entry/exit).
		double := receiverDispatches(t, fc, 8, 2*msgs)
		if double > 2*small+4 {
			t.Errorf("%v: dispatches superlinear in messages: %d for %d msgs, %d for %d msgs",
				fc.Kind, small, msgs, double, 2*msgs)
		}
	}
}

// TestRankMainPanicSurfacesFromRun: a panic in one rank's main comes out
// of World.Run on the caller's goroutine with its original value — so a
// sweep's worker pool can attribute it to a cell — and the other ranks,
// parked mid-Recv, are unwound on the way out, not leaked.
func TestRankMainPanicSurfacesFromRun(t *testing.T) {
	before := runtime.NumGoroutine()
	boom := errors.New("rank 2 gave up")
	w := NewWorld(4, DefaultOptions(core.Static(8)))
	var got any
	func() {
		defer func() { got = recover() }()
		err := w.Run(func(c *Comm) {
			if c.Rank() == 2 {
				c.Compute(5 * sim.Microsecond)
				panic(boom)
			}
			c.Recv(2, 0, make([]byte, 8)) // never sent
		})
		t.Errorf("Run returned %v, want rank 2's panic", err)
	}()
	if got != any(boom) {
		t.Errorf("Run panicked with %v, want the original value %v", got, boom)
	}
	// Unwinding is synchronous; "not more than before" because the
	// previous test's goroutine may still have been exiting at the baseline.
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("%d rank main(s) leaked after the panic", n-before)
	}
}

// TestSpawnAllocGate pins what World.Run pays to start a rank: a
// 256-rank world whose mains are empty allocates, per rank, the rank's
// coroutine — iter.Pull's objects and the body it wraps, about 8, and the
// runtime's goroutine behind them — and its share of the spawn list: the
// process lives in the rank, one body closure serves every rank, the
// world communicator is a field of the rank, finalize's predicate is
// bound with the device and a process name is formatted only where one
// is printed. Measured 12.1 (static, shared, rdma) to 13.1 (hardware)
// per rank; a closure, a name, a process and a communicator allocated
// per spawn and the predicate bound in the body read 17.1 to 18.1. The
// gate is 14, under every scheme.
func TestSpawnAllocGate(t *testing.T) {
	const ranks, maxPerRank = 256, 14.0
	for _, fc := range flatnessSchemes() {
		w := NewWorld(ranks, DefaultOptions(fc))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := w.Run(func(*Comm) {}); err != nil {
			t.Fatalf("%v: %v", fc.Kind, err)
		}
		runtime.ReadMemStats(&after)
		perRank := float64(after.Mallocs-before.Mallocs) / ranks
		t.Logf("%v: %.2f objects per rank across World.Run", fc.Kind, perRank)
		if perRank > maxPerRank {
			t.Errorf("%v: World.Run allocates %.2f objects per rank of an empty world, want <= %.0f",
				fc.Kind, perRank, maxPerRank)
		}
	}
}

// Package runner fans independent simulation worlds out across OS
// threads. It is the one sanctioned home of real (preemptive)
// concurrency in this repository's simulation stack: worlds are
// share-nothing — each cell of a sweep builds its own *sim.Engine,
// fabric and ranks, and touches nothing owned by any other cell — so
// running them on parallel workers cannot perturb any individual
// world's event order.
//
// Determinism is preserved by construction:
//
//   - Work is handed out by cell index from an atomic counter; which
//     worker runs which cell (and in what real-time order) is
//     scheduling-dependent, but no simulation state is shared, so a
//     cell's result is a pure function of its index.
//   - Results land in a slice slot owned exclusively by that cell's
//     index. Collection order is index order, never completion order.
//   - Merging (stats aggregation, output formatting) happens in the
//     caller after every worker has quiesced.
//
// Consequently Map(n, k, fn) returns byte-identical results for every
// k ≥ 1, and k = 1 is exactly the classic serial loop. The fclint
// simgoroutine analyzer sanctions this package's raw goroutines but
// enforces the share-nothing premise statically: importing
// ibflow/internal/sim from here is a lint error, so no engine handle
// can leak across the worker boundary (see internal/analysis).
package runner

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Default is the worker count of every sweep and of fclint: one worker
// per CPU, as GOMAXPROCS counts them, so GOMAXPROCS=1 runs serially.
func Default() int { return runtime.GOMAXPROCS(0) }

// Map runs fn(i) for every i in [0, n) on up to workers goroutines and
// returns the n results in index order. fn must be safe to call from
// multiple goroutines on distinct indices — for simulation sweeps that
// means each call builds its own world and shares nothing.
//
// workers <= 0 selects Default(); workers == 1 runs the plain serial
// loop on the calling goroutine. If any fn call panics, Map re-panics
// on the calling goroutine after the remaining workers drain.
func Map[T any](n, workers int, fn func(i int) T) []T {
	if n <= 0 {
		return nil
	}
	if workers <= 0 {
		workers = Default()
	}
	if workers > n {
		workers = n
	}
	out := make([]T, n)
	if workers == 1 {
		for i := 0; i < n; i++ {
			out[i] = fn(i)
		}
		return out
	}

	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		firstPnc atomic.Pointer[panicValue]
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					firstPnc.CompareAndSwap(nil, &panicValue{v: r})
				}
			}()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				out[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	if p := firstPnc.Load(); p != nil {
		panic(p.v)
	}
	return out
}

// panicValue boxes a recovered panic for atomic publication to the
// caller.
type panicValue struct{ v any }

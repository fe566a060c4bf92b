// Package bench is the experiment harness: it reruns the paper's
// micro-benchmarks (latency, bandwidth) and NAS application experiments
// under each flow control scheme and formats the tables and figures the
// paper reports (Figures 2-10, Tables 1-2), each cell at full precision.
// Figures 2 and 3 also carry the shared and rdma schemes.
// TestPaperClaims holds the committed BENCH_paper.json to the shapes the
// paper describes. The package also builds the other two documents
// fcbench writes: connection scaling and endpoint contention.
package bench

import (
	"fmt"

	"ibflow/internal/core"
	"ibflow/internal/mpi"
	"ibflow/internal/sim"
)

// Schemes returns the paper's three schemes at a given pre-post count.
// The dynamic scheme starts at the same pre-post value and may grow to
// dynMax.
func Schemes(prepost, dynMax int) []core.Params {
	return []core.Params{
		core.Hardware(prepost),
		core.Static(prepost),
		core.Dynamic(prepost, dynMax),
	}
}

// newWorld builds the world s describes under the sweeps' time limit.
// tune, when non-nil, edits its options last.
func newWorld(s mpi.Spec, tune func(*mpi.Options)) *mpi.World {
	opts := s.Options()
	opts.TimeLimit = timeLimit
	if tune != nil {
		tune(&opts)
	}
	return mpi.NewWorld(s.Ranks, opts)
}

// Latency measures the one-way small-message latency (the paper's
// ping-pong test, Figure 2) in microseconds for one message size in the
// two-rank world s. tune, when non-nil, edits its options.
func Latency(s mpi.Spec, size, iters int, tune func(*mpi.Options)) float64 {
	w := newWorld(s, tune)
	err := w.Run(func(c *mpi.Comm) {
		buf := make([]byte, size)
		for i := 0; i < iters; i++ {
			if c.Rank() == 0 {
				c.Send(1, 0, buf)
				c.Recv(1, 0, buf)
			} else {
				c.Recv(0, 0, buf)
				c.Send(0, 0, buf)
			}
		}
	})
	if err != nil {
		panic(err)
	}
	return w.Time().Micros() / float64(2*iters)
}

// Bandwidth measures the paper's window-based bandwidth test: the sender
// fires window back-to-back messages of size bytes, the receiver replies
// with a 4-byte ack after consuming all of them, repeated reps times
// after six untimed warm-up rounds (pin-down caches fill, the dynamic
// scheme adapts — the steady state is what the paper's long-running test
// loops measured). Blocking selects MPI_Send/Recv vs MPI_Isend/Irecv.
// The result is MB/s (10^6 bytes per second, as the paper plots) in the
// two-rank world s. tune, when non-nil, edits its options.
func Bandwidth(s mpi.Spec, size, window, reps int, blocking bool, tune func(*mpi.Options)) float64 {
	const warmup = 6
	var start sim.Time
	w := newWorld(s, tune)
	const tag, ackTag = 1, 2
	err := w.Run(func(c *mpi.Comm) {
		ack := make([]byte, 4)
		if c.Rank() == 0 {
			data := make([]byte, size)
			for r := 0; r < warmup+reps; r++ {
				if r == warmup {
					start = c.Time()
				}
				if blocking {
					for i := 0; i < window; i++ {
						c.Send(1, tag, data)
					}
				} else {
					reqs := make([]*mpi.Request, window)
					for i := 0; i < window; i++ {
						reqs[i] = c.Isend(1, tag, data)
					}
					c.Waitall(reqs...)
				}
				c.Recv(1, ackTag, ack)
			}
		} else {
			buf := make([]byte, size)
			bufs := make([][]byte, window)
			for i := range bufs {
				bufs[i] = make([]byte, size)
			}
			for r := 0; r < warmup+reps; r++ {
				if blocking {
					for i := 0; i < window; i++ {
						c.Recv(0, tag, buf)
					}
				} else {
					reqs := make([]*mpi.Request, window)
					for i := 0; i < window; i++ {
						reqs[i] = c.Irecv(0, tag, bufs[i])
					}
					c.Waitall(reqs...)
				}
				c.Send(0, ackTag, ack)
			}
		}
	})
	if err != nil {
		panic(fmt.Sprintf("bench: bandwidth run failed: %v", err))
	}
	bytes := float64(size) * float64(window) * float64(reps)
	elapsed := w.Time() - start
	return bytes / elapsed.Seconds() / 1e6
}

// timeLimit guards against pathological configurations in sweeps.
const timeLimit = 300 * sim.Second

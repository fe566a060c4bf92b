// Package bench is the experiment harness: it reruns the paper's
// micro-benchmarks (latency, bandwidth) and NAS application experiments
// under each flow control scheme and formats the tables and figures the
// paper reports (Figures 2-10, Tables 1-2). TestPaperClaims holds the
// committed BENCH_paper.json to the shapes the paper describes. The
// package also builds the three fcbench documents: the five-scheme
// micro sweep, connection scaling and endpoint contention.
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

// ParseScheme maps a tool's -scheme name and sizing flags to flow
// control parameters. prepost is the per-connection pre-post (the shared
// pool's starting size; the ring's slot count per connection direction).
// slotBytes is the ring slot size: 0 selects the 1024-byte default, and
// any other value is rejected for a scheme that has no slots. So is any
// combination the channel device would refuse: a usage error, not a panic.
func ParseScheme(name string, prepost, dynMax, slotBytes int) (core.Params, error) {
	if slotBytes != 0 && name != "rdma" {
		return core.Params{}, fmt.Errorf("-slotbytes applies to -scheme rdma only, not %q", name)
	}
	var fc core.Params
	switch name {
	case "hardware":
		fc = core.Hardware(prepost)
	case "static":
		fc = core.Static(prepost)
	case "dynamic":
		fc = core.Dynamic(prepost, dynMax)
	case "shared":
		fc = core.Shared(prepost, dynMax)
	case "rdma":
		if slotBytes == 0 {
			slotBytes = 1024
		}
		fc = core.RDMA(prepost, slotBytes)
	default:
		return core.Params{}, fmt.Errorf("unknown scheme %q (hardware|static|dynamic|shared|rdma)", name)
	}
	// Validate a copy: it fills in defaults (the shared pool's watermark)
	// that the returned parameters must leave to the device.
	check := fc
	if err := check.Validate(); err != nil {
		return core.Params{}, err
	}
	return fc, nil
}

// Latency measures the one-way small-message latency (the paper's
// ping-pong test, Figure 2) in microseconds for one message size. tune,
// when non-nil, edits the world's options before it is built.
func Latency(fc core.Params, size, iters int, tune func(*mpi.Options)) float64 {
	opts := mpi.DefaultOptions(fc)
	if tune != nil {
		tune(&opts)
	}
	w := mpi.NewWorld(2, opts)
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
// The result is MB/s (10^6 bytes per second, as the paper plots). tune,
// when non-nil, edits the world's options before it is built.
func Bandwidth(fc core.Params, size, window, reps int, blocking bool, tune func(*mpi.Options)) float64 {
	const warmup = 6
	var start sim.Time
	opts := mpi.DefaultOptions(fc)
	if tune != nil {
		tune(&opts)
	}
	w := mpi.NewWorld(2, opts)
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

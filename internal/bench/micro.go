// Package bench is the experiment harness: it reruns the paper's
// micro-benchmarks (latency, bandwidth) and NAS application experiments
// under each flow control scheme and formats the same tables and figures
// the paper reports (Figures 2-10, Tables 1-2), plus the ablations listed
// in DESIGN.md.
package bench

import (
	"fmt"

	"ibflow/internal/core"
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
// any other value is rejected for a scheme that has no slots.
func ParseScheme(name string, prepost, dynMax, slotBytes int) (core.Params, error) {
	if slotBytes != 0 && name != "rdma" {
		return core.Params{}, fmt.Errorf("-slotbytes applies to -scheme rdma only, not %q", name)
	}
	switch name {
	case "hardware":
		return core.Hardware(prepost), nil
	case "static":
		return core.Static(prepost), nil
	case "dynamic":
		return core.Dynamic(prepost, dynMax), nil
	case "shared":
		return core.Shared(prepost, dynMax), nil
	case "rdma":
		if slotBytes == 0 {
			slotBytes = 1024
		}
		return core.RDMA(prepost, slotBytes), nil
	}
	return core.Params{}, fmt.Errorf("unknown scheme %q (hardware|static|dynamic|shared|rdma)", name)
}

// Latency measures the one-way small-message latency (the paper's
// ping-pong test, Figure 2) in microseconds for one message size.
func Latency(fc core.Params, size, iters int) float64 {
	return LatencyOpts(fc, size, iters, nil)
}

// Bandwidth measures the paper's window-based bandwidth test: the sender
// fires window back-to-back messages of size bytes, the receiver replies
// with a 4-byte ack after consuming all of them, repeated reps times
// after two untimed warm-up rounds (pin-down caches fill, the dynamic
// scheme adapts — the steady state is what the paper's long-running test
// loops measured). Blocking selects MPI_Send/Recv vs MPI_Isend/Irecv.
// The result is MB/s (10^6 bytes per second, as the paper plots).
func Bandwidth(fc core.Params, size, window, reps int, blocking bool) float64 {
	return BandwidthOpts(fc, size, window, reps, blocking, nil)
}

// LatencySweep runs Latency across message sizes.
func LatencySweep(fc core.Params, sizes []int, iters int) []float64 {
	out := make([]float64, len(sizes))
	for i, s := range sizes {
		out[i] = Latency(fc, s, iters)
	}
	return out
}

// BandwidthSweep runs Bandwidth across window sizes.
func BandwidthSweep(fc core.Params, size int, windows []int, reps int, blocking bool) []float64 {
	out := make([]float64, len(windows))
	for i, w := range windows {
		out[i] = Bandwidth(fc, size, w, reps, blocking)
	}
	return out
}

// timeLimit guards against pathological configurations in sweeps.
const timeLimit = 300 * sim.Second

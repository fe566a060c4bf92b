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

// timeLimit guards against pathological configurations in sweeps.
const timeLimit = 300 * sim.Second

package mpi

import (
	"fmt"
	"strings"
	"testing"

	"ibflow/internal/core"
	"ibflow/internal/fault"
	"ibflow/internal/metrics"
	"ibflow/internal/sim"
	"ibflow/internal/trace"
)

// oneWayBurst runs n one-byte messages from rank 0 to rank 1 in a world
// of two ranks, non-blocking on the sender, while the receiver computes
// for 200 us before it takes them. Nothing flows back but what flow
// control sends.
func oneWayBurst(t *testing.T, opts Options, n int) *World {
	t.Helper()
	w := NewWorld(2, opts)
	err := w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			reqs := make([]*Request, n)
			for i := range reqs {
				reqs[i] = c.Isend(1, 0, []byte{byte(i)})
			}
			c.Waitall(reqs...)
			return
		}
		c.Compute(200 * sim.Microsecond)
		buf := make([]byte, 1)
		for range n {
			c.Recv(0, 0, buf)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestObserversAttachOnTheFabric: the three observers set on
// Options.IB alone reach every layer — the tracer records the devices'
// events beside the transport's, the registry holds every layer's series
// and is sampled, and a fault plan drops the devices' ECMs.
func TestObserversAttachOnTheFabric(t *testing.T) {
	t.Run("tracer", func(t *testing.T) {
		buf := trace.NewBuffer(1 << 12)
		opts := DefaultOptions(core.Hardware(1))
		opts.IB.Tracer = buf
		oneWayBurst(t, opts, 16)
		seen := map[trace.Kind]bool{}
		for _, s := range buf.Summary() {
			seen[s.Kind] = s.Count > 0
		}
		for _, k := range []trace.Kind{trace.SendEager, trace.RNRNak} {
			if !seen[k] {
				t.Errorf("no %v event traced", k)
			}
		}
	})
	t.Run("metrics", func(t *testing.T) {
		opts := DefaultOptions(core.Static(8))
		opts.IB.Metrics = metrics.New()
		d := oneWayBurst(t, opts, 16).Metrics().Snapshot()
		if len(d.SampleNS) == 0 {
			t.Error("the registry was never sampled")
		}
		for _, prefix := range []string{"fc_", "chdev_", "ib_", "mpi_unexpected"} {
			found := false
			for i := range d.Metrics {
				found = found || strings.HasPrefix(d.Metrics[i].Name, prefix)
			}
			if !found {
				t.Errorf("no %s* series in the dump", prefix)
			}
		}
	})
	t.Run("faults", func(t *testing.T) {
		opts := DefaultOptions(core.Static(8))
		opts.IB.Faults = fault.New(fault.Config{Seed: 1, Nodes: 2, ECMDropProb: 0.5})
		if st := oneWayBurst(t, opts, 64).Stats(); st.ECMsSent == 0 || st.ECMsDropped == 0 {
			t.Errorf("%d ECMs sent, %d dropped: want some of each", st.ECMsSent, st.ECMsDropped)
		}
	})
}

// TestFaultPlanForAnotherNodeCountPanics: a plan whose outages name
// nodes of a different fabric is refused when the world is built, with
// both counts in the message; a plan drawn for the world's nodes is not.
func TestFaultPlanForAnotherNodeCountPanics(t *testing.T) {
	withPlan := func(nodes int) Options {
		opts := DefaultOptions(core.Static(8))
		opts.RanksPerNode = 2
		opts.IB.Faults = fault.New(fault.Config{Seed: 1, Nodes: nodes, OutageCount: 2,
			OutageMax: sim.Microsecond, Horizon: sim.Millisecond})
		return opts
	}
	NewWorld(4, withPlan(2))
	defer func() {
		msg := fmt.Sprint(recover())
		if !strings.Contains(msg, "4 nodes") || !strings.Contains(msg, "has 2") {
			t.Errorf("panic %q, want one naming the plan's 4 nodes and the world's 2", msg)
		}
	}()
	NewWorld(4, withPlan(4))
}

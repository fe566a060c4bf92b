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
		d := oneWayBurst(t, opts, 16).opts.IB.Metrics.Snapshot()
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
		opts := specOptions(t, "ranks=2 scheme=static(8) faults=seed(1)+ecmdrop(50)")
		sent := oneWayBurst(t, opts, 64).Stats().ECMsSent
		if dropped := opts.IB.Faults.(*fault.Plan).Stats().ECMDrops; sent == 0 || dropped == 0 {
			t.Errorf("%d ECMs sent, %d dropped: want some of each", sent, dropped)
		}
	})
}

// TestFaultPlanTracesOnTheFabricRing: a plan records its events in the
// one ring the world attaches, IB.Tracer — its outages when the fabric
// binds it, a fault delay per delayed message.
func TestFaultPlanTracesOnTheFabricRing(t *testing.T) {
	buf := trace.NewBuffer(1 << 12)
	opts := specOptions(t, "ranks=2 scheme=static(8) faults=seed(1)+jitter(50)+outages(2)")
	opts.IB.Tracer = buf
	oneWayBurst(t, opts, 16)
	seen := map[trace.Kind]int{}
	for _, s := range buf.Summary() {
		seen[s.Kind] = s.Count
	}
	if seen[trace.LinkOutage] != 2 || seen[trace.FaultDelay] == 0 {
		t.Errorf("%d link-outage and %d fault-delay events traced, want 2 and some",
			seen[trace.LinkOutage], seen[trace.FaultDelay])
	}
}

// TestFaultPlanDrawsForItsWorld: a plan's outages name only nodes of
// the world that binds it, here two nodes of two ranks each.
func TestFaultPlanDrawsForItsWorld(t *testing.T) {
	buf := trace.NewBuffer(64)
	opts := specOptions(t, "ranks=4 pernode=2 scheme=static(8) faults=seed(1)+outages(16)")
	opts.IB.Tracer = buf
	NewWorld(4, opts)
	outages := 0
	for _, e := range buf.Events() {
		if e.Kind != trace.LinkOutage {
			continue
		}
		if outages++; e.Rank < 0 || e.Rank >= 2 {
			t.Errorf("outage %v names a node outside [0, 2)", e)
		}
	}
	if outages != 16 {
		t.Errorf("%d outages drawn, want 16", outages)
	}
}

// TestFaultPlanBindsOnce: a plan's generator belongs to one run, so a
// second world built on the same plan is refused.
func TestFaultPlanBindsOnce(t *testing.T) {
	opts := specOptions(t, "ranks=2 scheme=static(8) faults=seed(1)")
	NewWorld(2, opts)
	defer func() {
		if msg := fmt.Sprint(recover()); !strings.Contains(msg, "already bound") {
			t.Errorf("panic %q, want one saying the plan is already bound", msg)
		}
	}()
	NewWorld(2, opts)
}

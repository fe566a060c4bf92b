package mpi

import (
	"bytes"
	"testing"

	"ibflow/internal/core"
	"ibflow/internal/metrics"
	"ibflow/internal/sim"
	"ibflow/internal/trace"
)

// runInstrumented drives a small mixed workload (every pair talking,
// eager and rendezvous sizes) under the given options and returns the
// finished world.
func runInstrumented(t *testing.T, opts Options, n int) *World {
	t.Helper()
	sched := tortureSchedule(n, 60, 0x5eed)
	w := NewWorld(n, opts)
	if err := w.Run(func(c *Comm) {
		me := c.Rank()
		var reqs []*Request
		for _, m := range sched {
			if m.dst == me {
				reqs = append(reqs, c.Irecv(m.src, m.tag, make([]byte, m.size)))
			}
		}
		for _, m := range sched {
			if m.src == me {
				data := make([]byte, m.size)
				fillPattern(data, m.seed)
				c.Wait(c.Isend(m.dst, m.tag, data))
			}
		}
		c.Waitall(reqs...)
	}); err != nil {
		t.Fatal(err)
	}
	return w
}

// TestMetricsDumpDeterminism is the subsystem's core contract: the same
// seed and configuration must yield byte-identical metric dumps in every
// export format, across all five flow control schemes.
func TestMetricsDumpDeterminism(t *testing.T) {
	schemes := []core.Params{
		core.Hardware(2),
		core.Static(2),
		core.Dynamic(1, 64),
		core.Shared(4, 64),
		core.RDMA(4, 1024),
	}
	for _, fc := range schemes {
		fc := fc
		t.Run(fc.Kind.String(), func(t *testing.T) {
			run := func() (jsonB, csvB, pftB []byte) {
				ring := trace.NewBuffer(1 << 12)
				opts := DefaultOptions(fc)
				opts.IB.Metrics = metrics.New()
				opts.IB.Tracer = ring
				w := runInstrumented(t, opts, 3)
				var j, c, p bytes.Buffer
				if err := w.opts.IB.Metrics.WriteJSON(&j); err != nil {
					t.Fatal(err)
				}
				if err := w.opts.IB.Metrics.WriteCSV(&c); err != nil {
					t.Fatal(err)
				}
				if err := w.opts.IB.Metrics.WritePerfetto(&p, ring.Events()); err != nil {
					t.Fatal(err)
				}
				return j.Bytes(), c.Bytes(), p.Bytes()
			}
			j1, c1, p1 := run()
			j2, c2, p2 := run()
			if !bytes.Equal(j1, j2) {
				t.Error("JSON dumps differ between identical runs")
			}
			if !bytes.Equal(c1, c2) {
				t.Error("CSV dumps differ between identical runs")
			}
			if !bytes.Equal(p1, p2) {
				t.Error("Perfetto dumps differ between identical runs")
			}
			if len(j1) == 0 || len(c1) == 0 || len(p1) == 0 {
				t.Error("an export format produced no output")
			}
		})
	}
}

// TestMetricsDoNotChangeMakespan pins the observer-effect contract:
// attaching a registry (sampler events and all) must not move the
// simulated completion time by a single nanosecond. The shared-pool
// scheme rides along: its SRQ gauges and pool counters are closure
// readers like everything else, so sampling them must be free too.
func TestMetricsDoNotChangeMakespan(t *testing.T) {
	for _, fc := range []core.Params{core.Dynamic(1, 64), core.Shared(4, 64)} {
		for _, settle := range []bool{false, true} {
			name := fc.Kind.String()
			if settle {
				name += "-settle"
			}
			t.Run(name, func(t *testing.T) {
				mk := func(instrument bool) sim.Time {
					opts := DefaultOptions(fc)
					opts.Settle = settle
					if instrument {
						opts.IB.Metrics = metrics.New()
					}
					return runInstrumented(t, opts, 3).Time()
				}
				plain := mk(false)
				instrumented := mk(true)
				if plain != instrumented {
					t.Errorf("instrumentation changed the makespan: %v (plain) != %v (instrumented)",
						plain, instrumented)
				}
			})
		}
	}
}

// TestMetricsUnderSettle: a settling job's ranks exit before its last
// event, so the sampler goes quiet at the last exit and takes its final
// sample after the drain. The series must still end with end-of-run
// state — last sample at the makespan, final counter samples equal to
// the stats read after Run — and mpi_settle_ns must hold exactly one
// observation per rank, none longer than the job.
func TestMetricsUnderSettle(t *testing.T) {
	const n = 3
	opts := DefaultOptions(core.Dynamic(1, 64))
	opts.Settle = true
	opts.IB.Metrics = metrics.New()
	w := runInstrumented(t, opts, n)
	if err := w.Audit(); err != nil {
		t.Fatal(err)
	}
	d := w.opts.IB.Metrics.Snapshot()
	if got := sim.Time(d.SampleNS[len(d.SampleNS)-1]); got != w.Time() {
		t.Errorf("last sample at %v, want the makespan %v", got, w.Time())
	}
	final := map[string]uint64{}
	for i := range d.Metrics {
		m := &d.Metrics[i]
		if m.Name == "mpi_settle_ns" {
			if m.Value != n {
				t.Errorf("mpi_settle_ns holds %d observations, want one per rank (%d)", m.Value, n)
			}
			if m.Min < 0 || sim.Time(m.Max) > w.Time() {
				t.Errorf("mpi_settle_ns range [%d, %d] ns outside the %v job", m.Min, m.Max, w.Time())
			}
		}
		if m.Kind == "counter" {
			final[m.Name] += uint64(m.Series[len(m.Series)-1])
		}
	}
	st := w.Stats()
	for _, c := range []struct {
		name string
		want uint64
	}{
		{"fc_msgs_sent", st.MsgsSent}, {"fc_eager_sent", st.EagerSent}, {"fc_ecms_sent", st.ECMsSent},
		{"fc_backlogged", st.Backlogged}, {"ib_rnr_naks", st.RNRNaks},
		{"sim_events_fired", w.Engine().EventsFired()},
	} {
		if final[c.name] != c.want {
			t.Errorf("final %s samples sum to %d, end-of-run value is %d", c.name, final[c.name], c.want)
		}
	}
	if st.ECMsSent == 0 {
		t.Error("workload sent no explicit credit message: nothing trailed finalize")
	}
}

// TestPoolHealthMetricsAreGated: the buffer-pool health gauges are gated
// on the metrics registry alone — every instrumented run carries all
// four — and they show the pool recycling buffers rather than growing
// without bound.
func TestPoolHealthMetricsAreGated(t *testing.T) {
	opts := DefaultOptions(core.Static(4))
	opts.IB.Metrics = metrics.New()
	d := runInstrumented(t, opts, 3).opts.IB.Metrics.Snapshot()
	got := make(map[string]int64)
	for i := range d.Metrics {
		m := &d.Metrics[i]
		if len(m.Series) == 0 {
			continue
		}
		switch m.Name {
		case "chdev_pool_outstanding", "chdev_pool_out_hwm",
			"chdev_pool_allocated", "chdev_pool_recycled":
			got[m.Name] += m.Series[len(m.Series)-1]
		}
	}
	if len(got) != 4 {
		t.Fatalf("instrumented run exposed %d pool metric names, want 4: %v", len(got), got)
	}
	if got["chdev_pool_recycled"] == 0 {
		t.Error("steady-state traffic recycled no pool buffers")
	}
	if got["chdev_pool_allocated"] == 0 || got["chdev_pool_out_hwm"] == 0 {
		t.Errorf("pool health gauges implausible: %v", got)
	}
}

// TestMetricsOnDemandMidRunRegistration: with on-demand connections the
// fc/ib instruments register only when two ranks first talk, so their
// series start mid-run (FirstSample > 0) and must still align with the
// registry's sample axis.
func TestMetricsOnDemandMidRunRegistration(t *testing.T) {
	opts := DefaultOptions(core.Dynamic(1, 64))
	opts.Chan.OnDemand = true
	opts.IB.Metrics = metrics.New()
	w := runInstrumented(t, opts, 3)
	d := w.opts.IB.Metrics.Snapshot()
	late := 0
	for i := range d.Metrics {
		m := &d.Metrics[i]
		if m.FirstSample > 0 {
			late++
		}
		if m.FirstSample+len(m.Series) != len(d.SampleNS) {
			t.Errorf("%s: first_sample %d + %d series points != %d samples",
				m.Key(), m.FirstSample, len(m.Series), len(d.SampleNS))
		}
	}
	if late == 0 {
		t.Error("on-demand run registered no metric after the first sample")
	}
}

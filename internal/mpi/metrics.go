package mpi

import (
	"ibflow/internal/metrics"
	"ibflow/internal/sim"
)

// metricsInterval is the sampling period of Options.IB.Metrics: fine
// enough to resolve credit dynamics at eager-message granularity
// (~7.5us round trips) without dominating the event count.
const metricsInterval = 20 * sim.Microsecond

// registerMetrics registers the job-level instruments on the attached
// registry; connection- and transport-level metrics register themselves
// as connections are established. No-op without a registry.
func (w *World) registerMetrics() {
	r := w.opts.IB.Metrics
	if r == nil {
		return
	}
	r.CounterFunc("sim_events_fired", w.eng.EventsFired)
	w.settleHist = r.Histogram("mpi_settle_ns", metrics.TimeBuckets)
	w.barrierHist = r.Histogram("coll_barrier_ns", metrics.TimeBuckets)
	for _, rk := range w.ranks {
		rk := rk
		r.GaugeFunc("mpi_unexpected", func() int64 { return int64(len(rk.unex)) },
			metrics.RankLabel(rk.idx))
	}
}

// startSampler begins periodic sampling for Run. Nil-safe: without a
// registry it returns a nil (no-op) sampler.
func (w *World) startSampler() *metrics.Sampler {
	return w.opts.IB.Metrics.StartSampler(w.eng, metricsInterval)
}

// ObserveBarrier records one rank's barrier participation time in the
// job's collective-latency histogram. Collectives (internal/coll) call
// it through Comm.World; nil-safe, so they never check for a registry.
func (w *World) ObserveBarrier(d sim.Time) { w.barrierHist.ObserveTime(d) }

package core

import "ibflow/internal/metrics"

// RegisterMetrics folds one direction of a connection's flow control
// state into r: live credit/backlog/pre-post levels as gauges and the
// Stats counters as counter readers. Everything is closure-backed — the
// registry reads the VC's own fields at sampling instants, so the hot
// path keeps its single set of counters and nothing is double-tracked.
// Nil-safe: a nil registry registers nothing.
func (vc *VC) RegisterMetrics(r *metrics.Registry, rank, peer int) {
	if r == nil {
		return
	}
	vc.registerMetrics(r, metrics.ConnLabels(rank, peer))
}

// RegisterMetricsEP registers the same series for one endpoint of a
// rank pair's endpoint set, distinguished by the ep label. Endpoint 0
// of every set uses RegisterMetrics instead, so single-endpoint runs
// keep the pre-endpoint metric keys and a larger set's key inventory
// strictly grows the classic one (fcstats -allow-new-keys clean).
func (vc *VC) RegisterMetricsEP(r *metrics.Registry, rank, peer, ep int) {
	if r == nil {
		return
	}
	vc.registerMetrics(r, metrics.EndpointLabels(rank, peer, ep))
}

func (vc *VC) registerMetrics(r *metrics.Registry, ls []metrics.Label) {
	r.GaugeFunc("fc_credits", func() int64 { return int64(vc.Credits()) }, ls...)
	r.GaugeFunc("fc_backlog", func() int64 { return int64(vc.BacklogLen()) }, ls...)
	r.GaugeFunc("fc_posted", func() int64 { return int64(vc.Posted()) }, ls...)
	r.GaugeFunc("fc_owed", func() int64 { return int64(vc.Owed()) }, ls...)
	r.CounterFunc("fc_eager_sent", func() uint64 { return vc.stats.EagerSent }, ls...)
	r.CounterFunc("fc_demoted", func() uint64 { return vc.stats.Demoted }, ls...)
	r.CounterFunc("fc_backlogged", func() uint64 { return vc.stats.Backlogged }, ls...)
	r.CounterFunc("fc_msgs_sent", func() uint64 { return vc.stats.MsgsSent }, ls...)
	r.CounterFunc("fc_ecms_sent", func() uint64 { return vc.stats.ECMsSent }, ls...)
	r.CounterFunc("fc_ecms_dropped", func() uint64 { return vc.stats.ECMsDropped }, ls...)
	r.CounterFunc("fc_ecms_duplicated", func() uint64 { return vc.stats.ECMsDuplicated }, ls...)
	r.CounterFunc("fc_credits_piggy", func() uint64 { return vc.stats.CreditsPiggy }, ls...)
	r.CounterFunc("fc_credits_ecm", func() uint64 { return vc.stats.CreditsByECM }, ls...)
	r.CounterFunc("fc_growth_events", func() uint64 { return vc.stats.GrowthEvents }, ls...)
	r.CounterFunc("fc_reissues", func() uint64 { return vc.stats.Reissues }, ls...)
}

// RegisterMetrics folds the shared pool's accounting into r: one series
// per rank (the pool is rank-wide, not per-connection). The free-buffer
// gauge lives with the channel device, which owns the SRQ itself.
func (pl *Pool) RegisterMetrics(r *metrics.Registry, rank int) {
	if r == nil {
		return
	}
	ls := []metrics.Label{metrics.RankLabel(rank)}
	r.GaugeFunc("fc_pool_posted", func() int64 { return int64(pl.Posted()) }, ls...)
	r.GaugeFunc("fc_pool_in_use", func() int64 { return int64(pl.InUse()) }, ls...)
	r.CounterFunc("fc_pool_taken", func() uint64 { return pl.stats.Taken }, ls...)
	r.CounterFunc("fc_pool_limit_events", func() uint64 { return pl.stats.LimitEvents }, ls...)
	r.CounterFunc("fc_pool_growth_events", func() uint64 { return pl.stats.GrowthEvents }, ls...)
}

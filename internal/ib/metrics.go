package ib

import (
	"strconv"

	"ibflow/internal/metrics"
)

// registerMetrics folds one QP's transport counters and queue depths
// into the fabric's registry as reader closures. Called from Connect,
// once per QP; on-demand connections established mid-run register late
// and their series align via the registry's first-sample offsets.
//
// Labels carry (node, peer, qp): with SMP placement several rank pairs
// share a node pair, so the per-HCA queue pair number is needed to keep
// the series distinct.
func (qp *QP) registerMetrics() {
	r := qp.hca.fabric.cfg.Metrics
	if r == nil {
		return
	}
	ls := []metrics.Label{
		{Key: "node", Value: strconv.Itoa(qp.hca.node)},
		{Key: "peer", Value: strconv.Itoa(qp.peer.hca.node)},
		{Key: "qp", Value: strconv.Itoa(int(qp.num))},
	}
	r.CounterFunc("ib_msgs_sent", func() uint64 { return qp.stats.MsgsSent }, ls...)
	r.CounterFunc("ib_msgs_delivered", func() uint64 { return qp.stats.Delivered }, ls...)
	r.CounterFunc("ib_bytes_sent", func() uint64 { return qp.stats.BytesSent }, ls...)
	r.CounterFunc("ib_rnr_naks", func() uint64 { return qp.stats.RNRNaks }, ls...)
	r.CounterFunc("ib_retransmits", func() uint64 { return qp.stats.Retransmits }, ls...)
	r.CounterFunc("ib_rnr_exhausted", func() uint64 { return qp.stats.RNRExhausted }, ls...)
	r.GaugeFunc("ib_posted_recvs", func() int64 { return int64(qp.PostedRecvs()) }, ls...)
	r.GaugeFunc("ib_queued_sends", func() int64 { return int64(qp.QueuedSends()) }, ls...)
}

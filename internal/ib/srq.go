package ib

import (
	"strconv"

	"ibflow/internal/metrics"
)

// SRQStats counts shared-receive-queue provisioning events.
type SRQStats struct {
	PostedTotal uint64 // descriptors ever posted
	Taken       uint64 // descriptors consumed by arrivals
	LimitEvents uint64 // low-watermark crossings reported to the owner
}

// SRQ is a shared receive queue: one FIFO pool of receive descriptors
// serving every QP attached to it by InitQP, the way a real HCA's SRQ
// decouples receive-buffer memory from the number of connections. A send
// arriving on any attached QP consumes the pool head; an empty pool
// produces exactly the RNR NAK a drained per-QP queue would, because the
// delivery path sees both through the same two questions (QP.takeRecv).
//
// SetLimit arms the low-watermark limit event (the simulator's analogue
// of IBV_EVENT_SRQ_LIMIT_REACHED): when a take drops the free count
// below the threshold, the callback fires once, synchronously, and the
// event re-arms only after the pool has been replenished back to the
// threshold — one event per dip, not one per arrival.
type SRQ struct {
	hca *HCA
	num int
	q   recvQueue

	limit   int
	onLimit func()
	armed   bool

	stats SRQStats
}

// NewSRQ creates a shared receive queue on this adapter.
func (h *HCA) NewSRQ() *SRQ {
	s := &SRQ{hca: h, num: len(h.srqs)}
	h.srqs = append(h.srqs, s)
	s.registerMetrics()
	return s
}

// Stats returns a copy of the SRQ's counters.
func (s *SRQ) Stats() SRQStats { return s.stats }

// PostedRecvs reports descriptors currently free in the shared pool.
func (s *SRQ) PostedRecvs() int { return s.q.posted() }

// SetLimit arms the low-watermark limit event: fn fires (synchronously,
// from the take that crossed the threshold) whenever the free descriptor
// count dips below n. A limit of 0 or a nil fn disables the event.
func (s *SRQ) SetLimit(n int, fn func()) {
	s.limit = n
	s.onLimit = fn
	s.armed = n > 0 && fn != nil
}

// PostRecvFrom posts a descriptor-only receive into the shared pool; its
// bytes are committed from src when a message lands (see RecvSource).
// Arrivals on any attached QP consume descriptors in FIFO order.
func (s *SRQ) PostRecvFrom(wrid uint64, src RecvSource) {
	s.postRecv(recvWQE{wrid: wrid, src: src})
}

func (s *SRQ) postRecv(w recvWQE) {
	s.q.post(w)
	s.stats.PostedTotal++
	// Hysteresis re-arm: once replenishment brings the pool back to the
	// watermark, the next dip below it fires again.
	if !s.armed && s.onLimit != nil && s.limit > 0 && s.q.posted() >= s.limit {
		s.armed = true
	}
}

// take consumes the pool head on behalf of an attached QP and fires the
// limit event on a downward watermark crossing.
func (s *SRQ) take() (recvWQE, bool) {
	w, ok := s.q.take()
	if !ok {
		return recvWQE{}, false
	}
	s.stats.Taken++
	if s.armed && s.q.posted() < s.limit {
		s.armed = false
		s.stats.LimitEvents++
		s.onLimit()
	}
	return w, true
}

// posted reports the free descriptors an attached QP's arrival may take.
func (s *SRQ) posted() int { return s.q.posted() }

// registerMetrics folds the shared pool's depth and event counters into
// the fabric's registry. One series per SRQ, labelled by node.
func (s *SRQ) registerMetrics() {
	r := s.hca.fabric.cfg.Metrics
	if r == nil {
		return
	}
	ls := []metrics.Label{
		{Key: "node", Value: strconv.Itoa(s.hca.node)},
		{Key: "srq", Value: strconv.Itoa(s.num)},
	}
	r.GaugeFunc("ib_srq_free", func() int64 { return int64(s.q.posted()) }, ls...)
	r.CounterFunc("ib_srq_posted_total", func() uint64 { return s.stats.PostedTotal }, ls...)
	r.CounterFunc("ib_srq_taken", func() uint64 { return s.stats.Taken }, ls...)
	r.CounterFunc("ib_srq_limit_events", func() uint64 { return s.stats.LimitEvents }, ls...)
}

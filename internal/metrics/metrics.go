// Package metrics is the deterministic instrumentation subsystem: a
// Registry of named counters, gauges, and fixed-bucket histograms with
// per-rank/per-connection labels, sampled periodically on the virtual
// sim clock into time series and exported as JSON, CSV, or Perfetto
// trace-event files.
//
// Three contracts shape the design:
//
//   - Determinism. Same seed + config means a byte-identical dump.
//     Nothing here reads the wall clock, iterates a map with effects,
//     or allocates ids nondeterministically: metrics are stored in
//     registration order (itself deterministic) and exported sorted by
//     canonical key.
//
//   - Nil safety. Every Registry and Histogram method is safe on a nil
//     receiver and does nothing, so instrumented code never checks for
//     an attached registry and the zero-config path stays fast.
//
//   - No double-tracking. A counter or gauge is a CounterFunc/GaugeFunc
//     reader over its owner's own field (core.VC stats, ib.QP stats, a
//     device's totals); hot paths keep mutating those fields and the
//     registry reads them only at sampling/export instants. Only
//     histograms are pushed into: their buckets have no other owner.
package metrics

import (
	"sort"
	"strconv"
	"strings"

	"ibflow/internal/sim"
)

// Label is one key=value dimension attached to a metric, e.g. rank=3.
type Label struct {
	Key   string
	Value string
}

// RankLabel labels a metric with the owning MPI rank.
func RankLabel(rank int) Label { return Label{Key: "rank", Value: strconv.Itoa(rank)} }

// ConnLabels labels a per-connection metric with its owning rank, the
// peer it talks to and, for an endpoint beyond the first of the rank
// pair's set, its index ep. Each direction of a connection is a distinct
// metric. Endpoint 0 carries no ep label at any set size, so a
// single-endpoint run keeps the pre-endpoint key inventory and an
// endpoint-set dump strictly grows it (fcstats -allow-new-keys).
func ConnLabels(rank, peer, ep int) []Label {
	ls := []Label{
		{Key: "peer", Value: strconv.Itoa(peer)},
		{Key: "rank", Value: strconv.Itoa(rank)},
	}
	if ep > 0 {
		ls = append(ls, Label{Key: "ep", Value: strconv.Itoa(ep)})
	}
	return ls
}

// Kind classifies a metric.
type Kind uint8

// Metric kinds.
const (
	KindCounter Kind = iota + 1
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "Kind(" + strconv.Itoa(int(k)) + ")"
}

// Histogram counts observations into fixed buckets. Bounds are inclusive
// upper limits in the metric's unit (nanoseconds for *_ns metrics), with
// an implicit +Inf bucket at the end. All methods are nil-safe.
type Histogram struct {
	bounds []int64
	counts []uint64 // len(bounds)+1; last is the overflow bucket
	count  uint64
	sum    int64
	min    int64
	max    int64
}

// TimeBuckets is the standard 1-2-5 ladder of nanosecond bounds from 1us
// to 100ms, covering everything from a single eager round trip to a
// stalled rendezvous under fault injection.
var TimeBuckets = []int64{
	1_000, 2_000, 5_000,
	10_000, 20_000, 50_000,
	100_000, 200_000, 500_000,
	1_000_000, 2_000_000, 5_000_000,
	10_000_000, 20_000_000, 50_000_000,
	100_000_000,
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	for i, b := range h.bounds {
		if v <= b {
			h.counts[i]++
			return
		}
	}
	h.counts[len(h.bounds)]++
}

// ObserveTime records a virtual duration in nanoseconds.
func (h *Histogram) ObserveTime(d sim.Time) { h.Observe(int64(d)) }

// metric is one registered instrument plus its sampled series.
type metric struct {
	name   string
	labels []Label // sorted by key
	kind   Kind
	key    string

	// Exactly one of these backs the value.
	readC func() uint64
	readG func() int64
	hist  *Histogram

	first  int // index into the registry's sample times of this metric's first sample
	series []int64
}

// value reads the instrument's current value. For histograms it is the
// observation count, so sampled histogram series show event rates.
func (m *metric) value() int64 {
	switch {
	case m.readC != nil:
		return int64(m.readC())
	case m.readG != nil:
		return m.readG()
	case m.hist != nil:
		return int64(m.hist.count)
	}
	return 0
}

// Registry holds a job's metrics and their sampled time series. The zero
// value is not usable; create one with New. A nil *Registry is a valid
// no-op handle: registration records nothing (Histogram returns a nil,
// no-op histogram) and sampling does nothing.
//
// A Registry belongs to exactly one simulated world: instruments read
// that world's state, and sample times come from its clock. Registering
// the same name+labels twice panics — a collision means two sources
// would silently double-track one series.
type Registry struct {
	byKey    map[string]*metric
	order    []*metric // registration order; deterministic under the sim
	times    []sim.Time
	interval sim.Time // sampling period, recorded by StartSampler
}

// New creates an empty registry.
func New() *Registry {
	return &Registry{byKey: make(map[string]*metric)}
}

// Key renders the canonical identity of a metric: the name alone, or
// name{k=v,...} with labels sorted by key.
func Key(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(l.Value)
	}
	b.WriteByte('}')
	return b.String()
}

func checkPiece(what, s string) {
	if s == "" {
		panic("metrics: empty " + what)
	}
	if strings.ContainsAny(s, "{}=,\n") {
		panic("metrics: " + what + " " + strconv.Quote(s) + " contains a reserved character")
	}
}

func (r *Registry) register(name string, labels []Label, kind Kind) *metric {
	checkPiece("metric name", name)
	ls := make([]Label, len(labels))
	copy(ls, labels)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	for _, l := range ls {
		checkPiece("label key", l.Key)
		checkPiece("label value", l.Value)
	}
	m := &metric{name: name, labels: ls, kind: kind, key: Key(name, ls)}
	if _, dup := r.byKey[m.key]; dup {
		panic("metrics: duplicate registration of " + m.key)
	}
	m.first = len(r.times)
	r.byKey[m.key] = m
	r.order = append(r.order, m)
	return m
}

// CounterFunc registers a counter backed by a reader closure — the hook
// for folding existing stats fields into the registry without
// double-tracking. read is called at sampling and export instants only.
// Nil-safe.
func (r *Registry) CounterFunc(name string, read func() uint64, labels ...Label) {
	if r == nil {
		return
	}
	if read == nil {
		panic("metrics: CounterFunc with nil reader")
	}
	m := r.register(name, labels, KindCounter)
	m.readC = read
}

// GaugeFunc registers a gauge backed by a reader closure. Nil-safe.
func (r *Registry) GaugeFunc(name string, read func() int64, labels ...Label) {
	if r == nil {
		return
	}
	if read == nil {
		panic("metrics: GaugeFunc with nil reader")
	}
	m := r.register(name, labels, KindGauge)
	m.readG = read
}

// Histogram registers and returns a fixed-bucket histogram. bounds are
// ascending inclusive upper limits; an overflow bucket is implicit.
// Nil-safe: a nil registry returns a nil (no-op) histogram.
func (r *Registry) Histogram(name string, bounds []int64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	if len(bounds) == 0 {
		panic("metrics: histogram " + name + " needs at least one bucket bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("metrics: histogram " + name + " bounds must be strictly ascending")
		}
	}
	m := r.register(name, labels, KindHistogram)
	m.hist = &Histogram{
		bounds: append([]int64(nil), bounds...),
		counts: make([]uint64, len(bounds)+1),
	}
	return m.hist
}

// Sample appends one sample of every registered metric at virtual time
// now. Sampling twice at the same instant refreshes the latest sample in
// place, so a final end-of-run sample always reflects end state.
// Nil-safe.
func (r *Registry) Sample(now sim.Time) {
	if r == nil {
		return
	}
	if n := len(r.times); n > 0 {
		last := r.times[n-1]
		if now < last {
			panic("metrics: sample time moved backwards")
		}
		if now == last {
			for _, m := range r.order {
				if len(m.series) > 0 && m.first+len(m.series) == n {
					m.series[len(m.series)-1] = m.value()
				}
			}
			return
		}
	}
	r.times = append(r.times, now)
	for _, m := range r.order {
		m.series = append(m.series, m.value())
	}
}

// sorted returns the metrics ordered by canonical key — the export
// order. (Registration order is deterministic too, but key order is
// stable across refactorings that merely reorder registration sites.)
func (r *Registry) sorted() []*metric {
	out := make([]*metric, len(r.order))
	copy(out, r.order)
	sort.Slice(out, func(i, j int) bool { return out[i].key < out[j].key })
	return out
}

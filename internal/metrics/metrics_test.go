package metrics

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"ibflow/internal/sim"
	"ibflow/internal/trace"
)

func TestNilRegistryIsNoOp(t *testing.T) {
	var r *Registry
	h := r.Histogram("h", TimeBuckets)
	r.CounterFunc("cf", func() uint64 { return 1 })
	r.GaugeFunc("gf", func() int64 { return 1 })
	if h != nil {
		t.Fatal("a nil registry must hand out a nil histogram")
	}
	h.Observe(5)
	h.ObserveTime(3 * sim.Microsecond)
	r.Sample(10)
	eng := sim.NewEngine()
	s := r.StartSampler(eng, sim.Microsecond)
	s.Stop()
	d := r.Snapshot()
	if d.Version != DumpVersion || len(d.Metrics) != 0 {
		t.Fatalf("nil snapshot = %+v", d)
	}
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := r.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := r.WritePerfetto(&buf, nil); err != nil {
		t.Fatal(err)
	}
}

func TestKeyCanonicalization(t *testing.T) {
	r := New()
	zero := func() uint64 { return 0 }
	// Labels in any order land on the same sorted key.
	r.CounterFunc("fc_msgs", zero, Label{"rank", "0"}, Label{"peer", "1"})
	got := r.order[0].key
	if got != "fc_msgs{peer=1,rank=0}" {
		t.Fatalf("key = %q", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration must panic")
		}
	}()
	r.CounterFunc("fc_msgs", zero, Label{"peer", "1"}, Label{"rank", "0"})
}

func TestReservedCharactersPanic(t *testing.T) {
	r := New()
	zero := func() uint64 { return 0 }
	for _, bad := range []func(){
		func() { r.CounterFunc("a{b", zero) },
		func() { r.CounterFunc("", zero) },
		func() { r.CounterFunc("ok", zero, Label{"k=", "v"}) },
		func() { r.CounterFunc("ok", zero, Label{"k", "v,w"}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("reserved character must panic")
				}
			}()
			bad()
		}()
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := New()
	h := r.Histogram("lat_ns", []int64{10, 100, 1000})
	for _, v := range []int64{5, 10, 11, 100, 5000} {
		h.Observe(v)
	}
	d := r.Snapshot()
	m := d.Metrics[0]
	if m.Kind != "histogram" || m.Value != 5 {
		t.Fatalf("metric = %+v", m)
	}
	want := []DumpBucket{{10, 2}, {100, 2}, {1000, 0}, {-1, 1}}
	if len(m.Buckets) != len(want) {
		t.Fatalf("buckets = %+v", m.Buckets)
	}
	for i, b := range want {
		if m.Buckets[i] != b {
			t.Fatalf("bucket %d = %+v, want %+v", i, m.Buckets[i], b)
		}
	}
	if m.Sum != 5126 || m.Min != 5 || m.Max != 5000 {
		t.Fatalf("sum/min/max = %d/%d/%d", m.Sum, m.Min, m.Max)
	}
}

func TestSamplingAndMidRunRegistration(t *testing.T) {
	r := New()
	var depth, late int64
	r.GaugeFunc("depth", func() int64 { return depth })
	r.Sample(0)
	depth = 3
	r.Sample(100)
	// A connection established mid-run registers late: its series must
	// stay aligned via FirstSample.
	r.GaugeFunc("late", func() int64 { return late }, RankLabel(1))
	late = 9
	r.Sample(200)
	d := r.Snapshot()
	byKey := map[string]DumpMetric{}
	for _, m := range d.Metrics {
		byKey[m.Key()] = m
	}
	dm := byKey["depth"]
	if dm.FirstSample != 0 || len(dm.Series) != 3 || dm.Series[1] != 3 {
		t.Fatalf("depth = %+v", dm)
	}
	lm := byKey["late{rank=1}"]
	if lm.FirstSample != 2 || len(lm.Series) != 1 || lm.Series[0] != 9 {
		t.Fatalf("late = %+v", lm)
	}
	// Re-sampling at the same instant refreshes in place.
	depth = 4
	r.Sample(200)
	if got := r.Snapshot(); got.Metrics[0].Series[2] != 4 || len(got.SampleNS) != 3 {
		t.Fatalf("same-instant refresh failed: %+v", got.Metrics[0])
	}
}

func TestSamplerStopsWithWorkload(t *testing.T) {
	eng := sim.NewEngine()
	r := New()
	var events uint64
	r.CounterFunc("events", func() uint64 { return events })
	var s *Sampler
	for _, at := range []sim.Time{10, 20} {
		eng.At(at, func() { events++ })
	}
	// The workload stops the sampler when it completes — the mpi.World
	// pattern — which cancels the armed tick at 300 before it can fire.
	eng.At(250, func() { events++; s.Stop() })
	s = r.StartSampler(eng, 100)
	if err := eng.Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}
	if eng.Now() != 250 {
		t.Fatalf("makespan = %v, want 250ns (sampler must not stretch it)", eng.Now())
	}
	if eng.Pending() != 0 {
		t.Fatalf("Pending = %d, want 0 (cancelled tick drained)", eng.Pending())
	}
	s.Stop() // idempotent
	d := r.Snapshot()
	wantTimes := []int64{0, 100, 200, 250}
	if len(d.SampleNS) != len(wantTimes) {
		t.Fatalf("sample times = %v, want %v", d.SampleNS, wantTimes)
	}
	for i, w := range wantTimes {
		if d.SampleNS[i] != w {
			t.Fatalf("sample times = %v, want %v", d.SampleNS, wantTimes)
		}
	}
	if got := d.Metrics[0].Series[len(d.Metrics[0].Series)-1]; got != 3 {
		t.Fatalf("final counter sample = %d, want 3", got)
	}
}

func TestSamplerDoesNotKeepEngineAlive(t *testing.T) {
	eng := sim.NewEngine()
	r := New()
	eng.At(30, func() {})
	r.StartSampler(eng, 100)
	if err := eng.Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}
	// The tick at 100 fires, sees an empty queue, and does not re-arm:
	// an un-stopped sampler costs at most one interval, never an
	// infinite spin.
	if eng.Now() != 100 || eng.Pending() != 0 {
		t.Fatalf("now = %v pending = %d, want 100ns/0", eng.Now(), eng.Pending())
	}
}

func TestJSONDeterminismAndRoundTrip(t *testing.T) {
	build := func() *bytes.Buffer {
		r := New()
		var c uint64
		r.CounterFunc("c", func() uint64 { return c }, ConnLabels(0, 1, 0)...)
		h := r.Histogram("h_ns", TimeBuckets, RankLabel(0))
		r.GaugeFunc("gf", func() int64 { return 42 })
		r.Sample(0)
		c += 2
		h.ObserveTime(5 * sim.Microsecond)
		r.Sample(1000)
		var buf bytes.Buffer
		if err := r.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return &buf
	}
	a, b := build(), build()
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("identical registries must dump byte-identically")
	}
	d, err := DecodeDump(a)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Metrics) != 3 || d.SampleNS[1] != 1000 {
		t.Fatalf("round trip = %+v", d)
	}
	keys := make([]string, len(d.Metrics))
	for i := range d.Metrics {
		keys[i] = d.Metrics[i].Key()
	}
	want := []string{"c{peer=1,rank=0}", "gf", "h_ns{rank=0}"}
	for i, k := range want {
		if keys[i] != k {
			t.Fatalf("keys = %v, want %v", keys, want)
		}
	}
}

func TestDecodeDumpRejectsBadVersion(t *testing.T) {
	if _, err := DecodeDump(strings.NewReader(`{"version":99,"metrics":[]}`)); err == nil {
		t.Fatal("want version error")
	}
	if _, err := DecodeDump(strings.NewReader(`not json`)); err == nil {
		t.Fatal("want parse error")
	}
}

func TestWriteCSV(t *testing.T) {
	r := New()
	var a, b int64
	r.GaugeFunc("a", func() int64 { return a })
	r.Sample(0)
	a = 1
	r.GaugeFunc("b", func() int64 { return b }, ConnLabels(0, 1, 0)...)
	b = 5
	r.Sample(10)
	var buf bytes.Buffer
	if err := r.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	want := "t_ns,a,\"b{peer=1,rank=0}\"\n0,0,\n10,1,5\n"
	if buf.String() != want {
		t.Fatalf("csv = %q, want %q", buf.String(), want)
	}
}

func TestWritePerfetto(t *testing.T) {
	r := New()
	var credits int64
	r.GaugeFunc("fc_credits", func() int64 { return credits }, ConnLabels(1, 0, 0)...)
	r.Sample(0)
	credits = 7
	r.Sample(2500)
	events := []trace.Event{
		{T: 1200, Rank: 0, Peer: 1, Kind: trace.SendEager, Arg: 64},
		{T: 1300, Rank: 1, Peer: -1, Kind: trace.Grew, Arg: 20},
	}
	var buf bytes.Buffer
	if err := r.WritePerfetto(&buf, events); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !json.Valid(buf.Bytes()) {
		t.Fatalf("perfetto output is not valid JSON:\n%s", out)
	}
	for _, frag := range []string{
		`"name":"process_name"`,
		`"name":"fc_credits{peer=0}"`, // rank label moved onto the pid
		`"ph":"C","pid":1`,
		`"ts":2.500`,
		`"name":"send-eager"`,
		`"ph":"i"`,
	} {
		if !strings.Contains(out, frag) {
			t.Fatalf("perfetto output missing %q:\n%s", frag, out)
		}
	}
	// Determinism: same inputs, same bytes.
	var buf2 bytes.Buffer
	if err := r.WritePerfetto(&buf2, events); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("perfetto export must be byte-deterministic")
	}
}

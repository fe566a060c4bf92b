package main

import (
	"path/filepath"
	"strings"
	"testing"

	"ibflow/internal/bench"
	"ibflow/internal/core"
	"ibflow/internal/golden"
	"ibflow/internal/metrics"
	"ibflow/internal/mpi"
)

// instrumentedLatencyDump mirrors the CI metrics smoke invocation:
// fcbench -test latency -size 64 -iters 50 -metrics-out, at the default
// -spec 'ranks=2 scheme=static(100)'.
func instrumentedLatencyDump() metrics.Dump {
	reg := metrics.New()
	bench.Latency(mpi.Spec{Ranks: 2, Scheme: core.Static(100)}, 64, 50, func(o *mpi.Options) { o.IB.Metrics = reg })
	return reg.Snapshot()
}

// checkKeyGolden compares a dump's key list, one key a line, against
// testdata/<name>.
func checkKeyGolden(t *testing.T, d metrics.Dump, name string) {
	t.Helper()
	golden.Check(t, filepath.Join("testdata", name), []byte(strings.Join(keyList(d), "\n")+"\n"))
}

// TestKeyListMatchesGolden pins the instrumentation key set: adding or
// renaming a metric anywhere in the stack must update
// testdata/latency_metrics_keys.golden (which CI also diffs against a
// live fcbench|fcstats run).
func TestKeyListMatchesGolden(t *testing.T) {
	checkKeyGolden(t, instrumentedLatencyDump(), "latency_metrics_keys.golden")
}

// instrumentedRingDump runs the same latency point under the ring
// scheme (fcbench -spec 'ranks=2 scheme=rdma(8,1024)').
func instrumentedRingDump() metrics.Dump {
	reg := metrics.New()
	bench.Latency(mpi.Spec{Ranks: 2, Scheme: core.RDMA(8, 1024)}, 64, 50, func(o *mpi.Options) { o.IB.Metrics = reg })
	return reg.Snapshot()
}

// TestRingKeyListMatchesGolden pins the ring scheme's key inventory —
// the rdma run swaps the per-VC credit instruments for the ring's own:
// occupancy high-water mark, explicit credit syncs, and rendezvous
// read bytes.
func TestRingKeyListMatchesGolden(t *testing.T) {
	d := instrumentedRingDump()
	checkKeyGolden(t, d, "rdma_metrics_keys.golden")
	keys := strings.Join(keyList(d), "\n")
	for _, k := range []string{
		"chdev_rndv_read_bytes", "chdev_ring_occupancy_hwm", "chdev_ring_syncs",
	} {
		if !strings.Contains(keys, k+"{") {
			t.Errorf("ring run is missing metric %s", k)
		}
	}
}

// TestSharedKeyListMatchesGolden pins the shared scheme's inventory
// (fcbench -spec 'ranks=2 scheme=shared(16,96)'): one pool per rank
// (fc_pool_*) over one SRQ per device (ib_srq_*), which no other
// golden carries.
func TestSharedKeyListMatchesGolden(t *testing.T) {
	reg := metrics.New()
	bench.Latency(mpi.Spec{Ranks: 2, Scheme: core.Shared(16, 96)}, 64, 50, func(o *mpi.Options) { o.IB.Metrics = reg })
	checkKeyGolden(t, reg.Snapshot(), "shared_metrics_keys.golden")
}

// TestEndpointKeyListMatchesGolden pins the endpoint-set inventory of
// fcbench -spec 'ranks=2 scheme=static(100) eps=2', and checks what
// fcstats -allow-new-keys accepts of it against the classic run: every
// classic key is still there, and the set adds keys of its own.
func TestEndpointKeyListMatchesGolden(t *testing.T) {
	reg := metrics.New()
	spec := mpi.Spec{Ranks: 2, Scheme: core.Static(100), Endpoints: 2}
	bench.Latency(spec, 64, 50, func(o *mpi.Options) { o.IB.Metrics = reg })
	d := reg.Snapshot()
	checkKeyGolden(t, d, "endpoints_metrics_keys.golden")
	onlyClassic, onlyEndpoints := keyDivergence(instrumentedLatencyDump(), d)
	if len(onlyClassic) != 0 {
		t.Errorf("endpoint run lost classic keys: %v", onlyClassic)
	}
	if len(onlyEndpoints) == 0 {
		t.Error("endpoint run added no keys to the classic inventory")
	}
}

func TestSummaryTable(t *testing.T) {
	d := instrumentedLatencyDump()
	tab := summaryTable(d)
	if len(tab.Rows) != len(d.Metrics) {
		t.Fatalf("summary rows = %d, want %d", len(tab.Rows), len(d.Metrics))
	}
	for _, r := range tab.Rows {
		if len(r.Labels) != len(tab.Columns) {
			t.Fatalf("row %v has %d cells, want %d", r.Labels, len(r.Labels), len(tab.Columns))
		}
	}
	// The whole-job event counter must be present and nonzero.
	found := false
	for _, tr := range tab.Rows {
		r := tr.Labels
		if r[0] == "sim_events_fired" {
			found = true
			if r[1] != "counter" || r[2] == "0" {
				t.Errorf("sim_events_fired row = %v", r)
			}
		}
	}
	if !found {
		t.Error("sim_events_fired missing from summary")
	}
}

func TestDiffTableIdenticalDumps(t *testing.T) {
	d := instrumentedLatencyDump()
	tab := diffTable(d, d)
	if len(tab.Rows) != len(d.Metrics) {
		t.Fatalf("diff rows = %d, want %d", len(tab.Rows), len(d.Metrics))
	}
	for _, tr := range tab.Rows {
		if r := tr.Labels; r[4] != "+0" {
			t.Errorf("metric %s: delta %q, want +0 for identical dumps", r[0], r[4])
		}
	}
}

func TestDiffTableDisjointAndChanged(t *testing.T) {
	oldD := metrics.Dump{Version: metrics.DumpVersion, Metrics: []metrics.DumpMetric{
		{Name: "gone", Kind: "counter", Value: 3},
		{Name: "shared", Kind: "gauge", Value: 10},
	}}
	newD := metrics.Dump{Version: metrics.DumpVersion, Metrics: []metrics.DumpMetric{
		{Name: "added", Kind: "counter", Value: 7},
		{Name: "shared", Kind: "gauge", Value: 15},
	}}
	tab := diffTable(oldD, newD)
	want := map[string][]string{
		"added":  {"added", "counter", "-", "7", "-", "-"},
		"gone":   {"gone", "counter", "3", "-", "-", "-"},
		"shared": {"shared", "gauge", "10", "15", "+5", "+50.0%"},
	}
	if len(tab.Rows) != len(want) {
		t.Fatalf("diff rows = %d, want %d", len(tab.Rows), len(want))
	}
	for _, tr := range tab.Rows {
		r := tr.Labels
		w, ok := want[r[0]]
		if !ok {
			t.Errorf("unexpected row %v", r)
			continue
		}
		for i := range w {
			if r[i] != w[i] {
				t.Errorf("row %s cell %d = %q, want %q", r[0], i, r[i], w[i])
			}
		}
	}
}

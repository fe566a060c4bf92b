package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ibflow/internal/bench"
	"ibflow/internal/core"
	"ibflow/internal/metrics"
	"ibflow/internal/mpi"
)

// instrumentedLatencyDump mirrors the CI metrics smoke invocation:
// fcbench -test latency -size 64 -iters 50 -metrics-out, at the default
// -spec 'ranks=2 scheme=static(100)'.
func instrumentedLatencyDump() metrics.Dump {
	reg := metrics.New()
	bench.Latency(mpi.Spec{Ranks: 2, Scheme: core.Static(100)}, 64, 50, func(o *mpi.Options) { o.Metrics = reg })
	return reg.Snapshot()
}

// checkKeyGolden compares a dump's key list against a golden file,
// regenerating it when IBFLOW_UPDATE_GOLDENS is set.
func checkKeyGolden(t *testing.T, d metrics.Dump, golden string) {
	t.Helper()
	got := strings.Join(keyList(d), "\n") + "\n"
	path := filepath.Join("testdata", golden)
	if os.Getenv("IBFLOW_UPDATE_GOLDENS") != "" {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden: %v", err)
	}
	if got != string(want) {
		t.Errorf("metric key set diverged from golden:\ngot:\n%swant:\n%s", got, want)
	}
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
	bench.Latency(mpi.Spec{Ranks: 2, Scheme: core.RDMA(8, 1024)}, 64, 50, func(o *mpi.Options) { o.Metrics = reg })
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

// TestEndpointKeyListMatchesGolden pins the endpoint-set inventory of
// fcbench -spec 'ranks=2 scheme=static(100) eps=2', and checks what
// fcstats -allow-new-keys accepts of it against the classic run: every
// classic key is still there, and the set adds keys of its own.
func TestEndpointKeyListMatchesGolden(t *testing.T) {
	reg := metrics.New()
	spec := mpi.Spec{Ranks: 2, Scheme: core.Static(100), Endpoints: 2}
	bench.Latency(spec, 64, 50, func(o *mpi.Options) { o.Metrics = reg })
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
		if len(r) != len(tab.Columns) {
			t.Fatalf("row %v has %d cells, want %d", r, len(r), len(tab.Columns))
		}
	}
	// The whole-job event counter must be present and nonzero.
	found := false
	for _, r := range tab.Rows {
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
	for _, r := range tab.Rows {
		if r[4] != "+0" {
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
	for _, r := range tab.Rows {
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

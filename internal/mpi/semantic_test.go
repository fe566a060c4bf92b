package mpi

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"ibflow/internal/core"
	"ibflow/internal/metrics"
)

// The semantic-preservation goldens pin the observable behaviour of the
// progress engine across the goroutine-to-handler migration: the same
// seeded faulty world must produce the same makespan, the same device
// stats, the same trace event stream, and the same metrics dump —
// byte-identical, for every scheme — whether progress runs on a parked
// goroutine or on bound CQ handlers. The golden file was captured before
// the conversion; the converted engine must not move a single timestamp.
//
// Regenerate (only for an intentional semantic change) with:
//
//	IBFLOW_UPDATE_GOLDENS=1 go test -run TestSemanticGoldens ./internal/mpi

const updateGoldensEnv = "IBFLOW_UPDATE_GOLDENS"

// semanticGolden is one cell's pinned observable state. Makespan and
// event count ride along in clear text so a drift report says what moved
// before anyone has to bisect a hash.
type semanticGolden struct {
	MakespanNS int64  `json:"makespan_ns"`
	Events     int    `json:"events"`
	Digest     string `json:"digest"`
	MetricKeys string `json:"metric_keys_digest"`
}

// semanticCell is one pinned world. A settled cell is audited; its
// Settle-off twin is the same faulty world ending at MPI_Finalize,
// unaudited, and pins what a change to the settlement mechanism must not
// move — everything up to finalize.
type semanticCell struct {
	name   string
	spec   Spec
	settle bool
}

// semanticCells enumerates the pinned settled worlds: the five torture
// schemes (the ring scheme is the RDMA eager channel) and the on-demand
// connection path. One fixed seed per cell — determinism of the engine
// (same world, same bytes) is already pinned by the torture rerun tests;
// this file pins identity across the migration. TestSemanticGoldens also
// pins each one's Settle-off twin.
func semanticCells() []semanticCell {
	var cells []semanticCell
	for _, fc := range tortureSchemes {
		cells = append(cells, semanticCell{fc.Kind.String(), Spec{Ranks: 4, Scheme: fc}, true})
	}
	return append(cells, semanticCell{"dynamic-ondemand", Spec{Ranks: 4, Scheme: core.Dynamic(1, 64), OnDemand: true}, true})
}

// noSettle is the cell's Settle-off twin.
func (c semanticCell) noSettle() semanticCell {
	return semanticCell{c.name + "-nosettle", c.spec, false}
}

// digestFaultRun folds everything a migration must preserve into one
// hash: virtual time, aggregated stats, fault accounting, the full trace
// event stream (every sim timestamp) and the metrics dump bytes.
func digestFaultRun(res faultRunResult) string {
	h := sha256.New()
	fmt.Fprintf(h, "makespan %d\n", int64(res.makespan))
	fmt.Fprintf(h, "stats %+v\n", res.stats)
	fmt.Fprintf(h, "fstats %+v\n", res.fstats)
	for _, e := range res.events {
		fmt.Fprintf(h, "ev %+v\n", e)
	}
	h.Write(res.metricsJSON)
	return hex.EncodeToString(h.Sum(nil))
}

// digestMetricKeys hashes the sorted canonical key inventory of a
// metrics dump — the fcstats -keys view of the run.
func digestMetricKeys(t *testing.T, dump []byte) string {
	t.Helper()
	d, err := metrics.DecodeDump(bytes.NewReader(dump))
	if err != nil {
		t.Fatalf("metrics dump: %v", err)
	}
	keys := make([]string, len(d.Metrics))
	for i := range d.Metrics {
		keys[i] = d.Metrics[i].Key()
	}
	sort.Strings(keys)
	h := sha256.New()
	for _, k := range keys {
		fmt.Fprintln(h, k)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestSemanticGoldens(t *testing.T) {
	const seed = 0x5eed7
	path := filepath.Join("testdata", "semantic_goldens.json")
	got := map[string]semanticGolden{}
	cells := semanticCells()
	for _, cell := range semanticCells() {
		cells = append(cells, cell.noSettle())
	}
	for _, cell := range cells {
		res, err := faultTorture(cell.spec, seed, cell.settle)
		if err != nil {
			t.Fatalf("%s: %v", cell.name, err)
		}
		got[cell.name] = semanticGolden{
			MakespanNS: int64(res.makespan),
			Events:     len(res.events),
			Digest:     digestFaultRun(res),
			MetricKeys: digestMetricKeys(t, res.metricsJSON),
		}
	}
	if os.Getenv(updateGoldensEnv) != "" {
		buf, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", path)
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with %s=1 to capture): %v", updateGoldensEnv, err)
	}
	want := map[string]semanticGolden{}
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(got))
	for name := range got {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		g := got[name]
		w, ok := want[name]
		if !ok {
			t.Errorf("%s: no golden entry (regenerate with %s=1)", name, updateGoldensEnv)
			continue
		}
		if g != w {
			t.Errorf("%s: semantic drift across the progress engine:\n  got  %+v\n  want %+v",
				name, g, w)
		}
	}
	stale := make([]string, 0, len(want))
	for name := range want {
		if _, ok := got[name]; !ok {
			stale = append(stale, name)
		}
	}
	sort.Strings(stale)
	for _, name := range stale {
		t.Errorf("golden entry %s no longer produced", name)
	}
}

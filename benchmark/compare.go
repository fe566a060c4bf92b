package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

func readResults(path string) (*results, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r results
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// worse returns by how much of a's median b's median is worse, given
// which direction is better; negative means b is better.
func worse(a, b float64, better string) float64 {
	d := b - a
	if better == "higher" {
		d = -d
	}
	if a == 0 {
		if d == 0 {
			return 0
		}
		return math.Copysign(math.Inf(1), d)
	}
	return d / math.Abs(a)
}

// verdict judges one workload x end-to-end metric. b's median may be
// worse than a's by the metric's own bound. A difference beyond the bound
// is only resolved when the two sides' rep ranges do not overlap by more
// than the bound: otherwise run-to-run spread, not the change, may explain
// it.
func verdict(a, b e2eValue) (string, float64) {
	w := worse(a.Median, b.Median, a.Better)
	if math.Abs(w) <= a.Bound {
		return "PASS", w
	}
	overlap := math.Min(a.Max, b.Max) - math.Max(a.Min, b.Min)
	if a.Median != 0 && overlap/math.Abs(a.Median) > a.Bound {
		return "unresolved", w
	}
	if w > 0 {
		return "FAIL", w
	}
	return "PASS (better)", w
}

// compareFiles prints, per workload x end-to-end metric, both medians,
// the delta with its base and the verdict; then every exact per-layer
// count that differs. It reports whether nothing failed.
func compareFiles(w io.Writer, pathA, pathB string) (bool, error) {
	a, err := readResults(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResults(pathB)
	if err != nil {
		return false, err
	}
	if a.Sizes != b.Sizes || a.Seed != b.Seed {
		return false, fmt.Errorf("the two runs differ in sizes or seed (%+v seed %d vs %+v seed %d): not comparable",
			a.Sizes, a.Seed, b.Sizes, b.Seed)
	}
	fmt.Fprintf(w, "a = %s (commit %s)\nb = %s (commit %s)\n", pathA, a.Env.GitCommit, pathB, b.Env.GitCommit)
	ok := true
	for _, wl := range workloads {
		ra, rb := a.Workloads[wl.name], b.Workloads[wl.name]
		if ra == nil || rb == nil {
			fmt.Fprintf(w, "%s: missing on one side  FAIL\n", wl.name)
			ok = false
			continue
		}
		for _, d := range endToEnd {
			ea, eb := ra.EndToEnd[d.Name], rb.EndToEnd[d.Name]
			v, delta := verdict(ea, eb)
			if v == "FAIL" {
				ok = false
			}
			fmt.Fprintf(w, "%-11s %-20s a %.6g [%.6g..%.6g] n=%d  b %.6g [%.6g..%.6g] n=%d %s  worse by %+.2f%% of a (bound %.0f%%)  %s\n",
				wl.name, d.Name, ea.Median, ea.Min, ea.Max, ea.N, eb.Median, eb.Min, eb.Max, eb.N,
				ea.Unit, 100*delta, 100*ea.Bound, v)
		}
		fmt.Fprintf(w, "%-11s exact per-layer counts that differ: %s\n", wl.name, exactDiff(ra.PerLayer, rb.PerLayer))
	}
	fmt.Fprintf(w, "ladder      exact per-layer counts that differ: %s\n", exactDiff(a.Ladder, b.Ladder))
	return ok, nil
}

// exactDiff lists the exact metrics whose values differ between two
// sides. It informs; only end-to-end metrics pass or fail.
func exactDiff(a, b []layerValue) string {
	bv := map[string]float64{}
	for _, lv := range b {
		bv[lv.Name] = lv.Value
	}
	out := ""
	for _, lv := range a {
		if v, found := bv[lv.Name]; lv.Exact && (!found || v != lv.Value) {
			out += fmt.Sprintf(" %s (%.6g -> %.6g)", lv.Name, lv.Value, v)
		}
	}
	if out == "" {
		return "none"
	}
	return out
}

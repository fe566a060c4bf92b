package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"

	"ibflow/internal/mpi"
)

// benchmarkJSON is the part of ../BENCHMARK.json the test checks the
// program against.
type benchmarkJSON struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc benchmarkJSON
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

var legalName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// emitted checks that a run reports exactly the declared metrics, each
// once, under a legal name and with the declared unit.
func emitted(t *testing.T, what string, got []layerValue, want map[string]string) {
	t.Helper()
	seen := map[string]bool{}
	for _, lv := range got {
		if !legalName.MatchString(lv.Name) {
			t.Errorf("%s: illegal metric name %q", what, lv.Name)
		}
		if seen[lv.Name] {
			t.Errorf("%s: %s emitted twice", what, lv.Name)
		}
		seen[lv.Name] = true
		if unit, ok := want[lv.Name]; !ok {
			t.Errorf("%s: %s emitted but not declared in BENCHMARK.json", what, lv.Name)
		} else if unit != lv.Unit {
			t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", what, lv.Name, lv.Unit, unit)
		}
	}
	for name := range want {
		if !seen[name] {
			t.Errorf("%s: %s declared in BENCHMARK.json but not emitted", what, name)
		}
	}
}

// exactValues picks what must repeat bit for bit: the virtual end-to-end
// metrics and every exact per-layer count.
func exactValues(p part) map[string]float64 {
	m := map[string]float64{}
	for _, lv := range contractMetrics(p, true) {
		if lv.Exact {
			m[lv.Name] = lv.Value
		}
	}
	return m
}

// TestQuick runs the whole benchmark at its quick sizes, in this process.
func TestQuick(t *testing.T) {
	doc := readBenchmarkJSON(t)
	if doc.RunSeconds != defaultSeconds {
		t.Errorf("BENCHMARK.json run_seconds = %d, the program's default is %d", doc.RunSeconds, defaultSeconds)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the program has %d", len(doc.Workloads), len(workloads))
	}
	e2e, layers := map[string]string{}, map[string]string{}
	for _, m := range doc.EndToEnd {
		e2e[m.Name] = m.Unit
		found := false
		for _, d := range endToEnd {
			if d.Name == m.Name {
				found = true
				if !d.Host || d.Better != m.Better || d.Bound != m.Bound {
					t.Errorf("%s: BENCHMARK.json says better=%s bound=%v, the program host=%v better=%s bound=%v",
						m.Name, m.Better, m.Bound, d.Host, d.Better, d.Bound)
				}
			}
		}
		if !found {
			t.Errorf("%s: declared in BENCHMARK.json, unknown to the program", m.Name)
		}
	}
	for _, m := range doc.PerLayer {
		layers[m.Name] = m.Unit
	}

	o := options{seed: 1, quick: true, outDir: t.TempDir()}
	ladder := runLadder(o.sizes())
	for i, wl := range workloads {
		if doc.Workloads[i].Name != wl.name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the program %q", i, doc.Workloads[i].Name, wl.name)
		}
		first, err := measureWorkload(wl.name, o, true)
		if err != nil {
			t.Fatal(err)
		}
		first.Ladder = ladder
		if r := first.Workload; r.Failed != 0 || r.Attempted == 0 {
			t.Errorf("%s: %d of %d ops failed: %s", wl.name, r.Failed, r.Attempted, r.FirstError)
		}
		emitted(t, wl.name+" end-to-end", contractMetrics(first, false), e2e)
		emitted(t, wl.name+" per-layer", contractMetrics(first, true), layers)
		if _, err := os.Stat(o.outDir + "/trace_" + wl.name + ".json"); err != nil {
			t.Errorf("%s: no trace file: %v", wl.name, err)
		}

		// The same seed again: virtual metrics and exact counts repeat.
		again, err := measureWorkload(wl.name, o, false)
		if err != nil {
			t.Fatal(err)
		}
		again.Ladder = ladder
		want := exactValues(first)
		for name, v := range exactValues(again) {
			if name != "fail_share" && want[name] != v {
				t.Errorf("%s: %s = %v, then %v with the same seed", wl.name, name, want[name], v)
			}
		}

		// Another seed: different inputs, still no failed op.
		o2 := o
		o2.seed = 2
		other, err := measureWorkload(wl.name, o2, false)
		if err != nil {
			t.Fatal(err)
		}
		if r := other.Workload; r.Failed != 0 || r.Attempted == 0 {
			t.Errorf("%s seed 2: %d of %d ops failed: %s", wl.name, r.Failed, r.Attempted, r.FirstError)
		}
	}
}

// TestCheckCatchesCorruption makes sure the output check is not vacuous.
func TestCheckCatchesCorruption(t *testing.T) {
	const seed = 7
	buf := make([]byte, 64)
	tmpl := make([]byte, 64)
	putStamp(buf, stamp(seed, 3, 9))
	good := func() *rank { return &rank{cr: &cellRun{seed: seed, rec: newRecorder(0)}, id: 0} }
	st := func(src, tag, n int) mpi.Status { return mpi.Status{Source: src, Tag: tag, Len: n} }
	r := good()
	r.check(st(3, 5, 64), buf, 3, 5, 9, tmpl)
	if r.cr.failed != 0 || r.cr.attempted != 1 {
		t.Fatalf("a correct message failed the check: %s", r.cr.firstErr)
	}
	for name, breakIt := range map[string]func(r *rank){
		"source":  func(r *rank) { r.check(st(4, 5, 64), buf, 3, 5, 9, tmpl) },
		"tag":     func(r *rank) { r.check(st(3, 6, 64), buf, 3, 5, 9, tmpl) },
		"length":  func(r *rank) { r.check(st(3, 5, 63), buf, 3, 5, 9, tmpl) },
		"stamp":   func(r *rank) { r.check(st(3, 5, 64), buf, 3, 5, 10, tmpl) },
		"payload": func(r *rank) { b := append([]byte(nil), buf...); b[40] ^= 1; r.check(st(3, 5, 64), b, 3, 5, 9, tmpl) },
	} {
		r := good()
		breakIt(r)
		if r.cr.failed != 1 {
			t.Errorf("a wrong %s passed the check", name)
		}
	}
}

func TestVerdict(t *testing.T) {
	e := func(better string, bound, med, min, max float64) e2eValue {
		return e2eValue{"x", better, bound, summary{med, min, max, 5}}
	}
	for _, c := range []struct {
		name string
		a, b e2eValue
		want string
	}{
		{"within bound", e("higher", 0.10, 100, 98, 102), e("higher", 0.10, 95, 93, 97), "PASS"},
		{"clearly slower", e("higher", 0.10, 100, 98, 102), e("higher", 0.10, 80, 78, 82), "FAIL"},
		{"clearly faster", e("higher", 0.10, 100, 98, 102), e("higher", 0.10, 130, 128, 132), "PASS (better)"},
		{"slower but ranges overlap widely", e("higher", 0.10, 100, 70, 130), e("higher", 0.10, 85, 60, 120), "unresolved"},
		{"exact, equal", e("lower", 0, 7, 7, 7), e("lower", 0, 7, 7, 7), "PASS"},
		{"exact, worse", e("lower", 0, 7, 7, 7), e("lower", 0, 7.5, 7.5, 7.5), "FAIL"},
	} {
		if got, _ := verdict(c.a, c.b); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

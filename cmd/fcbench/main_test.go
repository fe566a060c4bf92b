package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ibflow/internal/metrics"
)

// flagCase is one fcbench invocation: the -test, the flags given and
// their values. want is a substring of the error; "" means the
// combination is valid.
type flagCase struct {
	test string
	set  []string
	v    flagVals
	want string
}

// TestCheckFlags runs every flag combination fcbench rejects, plus the
// ones it must accept. A -spec the channel device would refuse is one of
// them: a usage error (exit 2), never a panic inside the run.
func TestCheckFlags(t *testing.T) {
	out := flagVals{metricsOut: "m.json"}
	cases := []flagCase{
		{"latency", nil, flagVals{}, ""},
		{"latency", []string{"size", "metrics-out"}, out, ""},
		{"latency", []string{"spec"}, flagVals{spec: "ranks=2 scheme=rdma(8,2048) eps=2"}, ""},
		{"bandwidth", []string{"window", "metrics-out", "metrics-format"}, flagVals{metricsOut: "m", metricsFormat: "perfetto"}, ""},
		{"bandwidth", []string{"spec"}, flagVals{spec: "ranks=2 scheme=dynamic(10,300)"}, ""},
		{"scaling", []string{"quick", "json"}, flagVals{}, ""},
		{"endpoints", []string{"quick"}, flagVals{}, ""},
		{"paper", []string{"quick", "only", "csv"}, flagVals{only: "fig6,table2", csv: true}, ""},
		{"paper", []string{"metrics-out"}, flagVals{metricsOut: "m"}, ""},
		{"nas", nil, flagVals{}, ""},
		{"nas", []string{"app", "class", "spec", "trace", "metrics-out"}, flagVals{app: "CG", class: "S", spec: "ranks=8 scheme=dynamic(1,300)", trace: 20, metricsOut: "m"}, ""},

		// One registry per world: a sweep of sizes, windows or schemes
		// writes one numbered dump per world, built one at a time.
		{"latency", []string{"metrics-out"}, out, ""},
		{"bandwidth", []string{"metrics-out"}, out, ""},

		{"latency", []string{"window"}, flagVals{}, "-window applies to -test bandwidth"},
		{"latency", []string{"reps"}, flagVals{}, "-reps applies to -test bandwidth"},
		{"latency", []string{"blocking"}, flagVals{}, "-blocking applies to -test bandwidth"},
		{"bandwidth", []string{"iters"}, flagVals{}, "-iters applies to -test latency"},
		{"latency", []string{"spec"}, flagVals{spec: "ranks=2 scheme=rdma(8,4096)"}, "ring slot size 4096 exceeds staging buffer size 2048"},
		{"latency", []string{"spec"}, flagVals{spec: "ranks=2 scheme=static(100,300)"}, "static takes 1 arguments"},
		{"bandwidth", []string{"spec"}, flagVals{spec: "ranks=2 scheme=static(0)"}, `"0" is not a number`},
		{"latency", []string{"spec"}, flagVals{spec: "ranks=4 scheme=static(100)"}, "-test latency measures two ranks"},
		{"bandwidth", []string{"spec"}, flagVals{spec: "ranks=2 scheme=static(100) eps=1"}, "not canonical"},
		{"scaling", []string{"metrics-out"}, out, "not supported with -test scaling"},
		{"scaling", []string{"window"}, flagVals{}, "-window does not apply to -test scaling (fixed sweep; see internal/bench.ConnScaling)"},
		{"endpoints", []string{"metrics-out"}, out, "not supported with -test endpoints"},
		{"endpoints", []string{"spec"}, flagVals{}, "-spec does not apply to -test endpoints (fixed sweep; see internal/bench.EndpointContention)"},
		{"paper", []string{"only"}, flagVals{only: "fig9,tabel1"}, "-only names no experiment: tabel1"},
		{"paper", []string{"csv", "json"}, flagVals{csv: true, json: true}, "-csv and -json are mutually exclusive"},
		{"latency", []string{"only"}, flagVals{only: "fig2"}, "-only applies to -test paper"},
		{"nas", []string{"csv"}, flagVals{csv: true}, "-csv applies to -test paper"},
		{"paper", []string{"app"}, flagVals{app: "CG"}, "-app applies to -test nas"},
		{"bandwidth", []string{"class"}, flagVals{class: "S"}, "-class applies to -test nas"},
		{"latency", []string{"trace"}, flagVals{trace: 20}, "-trace applies to -test nas"},
		{"nas", []string{"class"}, flagVals{class: "Q"}, `unknown class "Q"`},
		{"nas", []string{"trace", "metrics-out", "metrics-format"}, flagVals{trace: 20, metricsOut: "m", metricsFormat: "perfetto"}, "-trace and -metrics-format perfetto"},
		{"nas", []string{"quick"}, flagVals{}, "-quick applies to -test scaling"},
		{"nosuch", nil, flagVals{}, `unknown -test "nosuch"`},
		{"latency", []string{"quick"}, flagVals{}, "-quick applies to -test scaling"},
		{"latency", []string{"metrics-format"}, flagVals{metricsFormat: "csv"}, "-metrics-format requires -metrics-out"},
		{"latency", []string{"size", "metrics-out", "metrics-format"}, flagVals{metricsOut: "m", metricsFormat: "xml"}, `unknown -metrics-format "xml"`},
	}
	// Every flag a fixed sweep ignores is rejected by every fixed sweep,
	// and a NAS run rejects the micro-benchmark knobs and -json.
	for _, test := range []string{"scaling", "endpoints", "paper"} {
		for _, f := range []string{"spec", "size", "window", "reps", "iters", "blocking"} {
			cases = append(cases, flagCase{test, []string{f}, flagVals{}, "-" + f + " does not apply to -test " + test})
		}
	}
	for _, f := range []string{"size", "window", "reps", "iters", "blocking", "json"} {
		cases = append(cases, flagCase{"nas", []string{f}, flagVals{}, "-" + f + " does not apply to -test nas"})
	}
	for _, c := range cases {
		set := map[string]bool{}
		for _, f := range c.set {
			set[f] = true
		}
		if c.v.metricsFormat == "" {
			c.v.metricsFormat = "json" // the flag's default
		}
		if c.v.spec == "" {
			c.v.spec = "ranks=2 scheme=static(100)" // the flag's default
		}
		if c.v.class == "" {
			c.v.class = "W" // the flag's default
		}
		_, err := checkFlags(c.test, set, c.v)
		switch {
		case c.want == "" && err != nil:
			t.Errorf("-test %s %v: rejected: %v", c.test, c.set, err)
		case c.want != "" && err == nil:
			t.Errorf("-test %s %v: accepted, want %q", c.test, c.set, c.want)
		case c.want != "" && !strings.Contains(err.Error(), c.want):
			t.Errorf("-test %s %v: %q, want %q", c.test, c.set, err, c.want)
		}
	}
}

// TestSelectExperiments is the -only table: keys pick tables in print
// order whatever order they are given in, groups expand, and a key that
// names no table is a usage error that names it — never a silent subset.
func TestSelectExperiments(t *testing.T) {
	all := []string{"fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "table1", "table2"}
	for _, c := range []struct {
		only    string
		want    []string
		wantErr string
	}{
		{only: "", want: all},
		{only: " , ", want: all},
		{only: "fig9", want: []string{"fig9"}},
		{only: "table1,fig2", want: []string{"fig2", "table1"}},
		{only: "FIG2, Table1", want: []string{"fig2", "table1"}},
		{only: "nas", want: []string{"fig9", "fig10", "table1", "table2"}},
		{only: "micro,fig9", want: []string{"fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9"}},
		{only: "fig9,tabel1", wantErr: "tabel1"},
		{only: "fig9,ablations", wantErr: "ablations"},
		{only: "connscaling", wantErr: "connscaling"},
		{only: "zzz,aaa,fig2", wantErr: "aaa, zzz"},
	} {
		sel, err := selectExperiments(c.only)
		if c.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Errorf("-only %q: error %v, want one naming %q", c.only, err, c.wantErr)
			}
			continue
		}
		if err != nil {
			t.Errorf("-only %q: %v", c.only, err)
			continue
		}
		var got []string
		for _, e := range sel {
			got = append(got, e.keys[0])
		}
		if strings.Join(got, ",") != strings.Join(c.want, ",") {
			t.Errorf("-only %q selected %v, want %v", c.only, got, c.want)
		}
	}
}

// TestSpecUsage: a -spec the channel device would refuse, one of the
// wrong shape and one written out of canonical form are usage errors
// (exit 2) before any world is built; a good one runs the kernel in that
// world and names it in the report.
func TestSpecUsage(t *testing.T) {
	for _, c := range []struct{ spec, want string }{
		{"ranks=8 scheme=rdma(8,4096)", "ring slot size 4096 exceeds staging buffer size 2048"},
		{"ranks=8 scheme=dynamic(1)", "dynamic takes 2 arguments"},
		{"ranks=8 scheme=static(100) pernode=2", "not canonical"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-test", "nas", "-spec", c.spec}, &stdout, &stderr); code != 2 {
			t.Errorf("-spec %q: exit %d, want 2", c.spec, code)
		}
		if stdout.Len() != 0 || !strings.Contains(stderr.String(), c.want) {
			t.Errorf("-spec %q: stdout %q, stderr %q; want only an error naming %q", c.spec, &stdout, &stderr, c.want)
		}
	}

	var stdout, stderr bytes.Buffer
	code := run([]string{"-test", "nas", "-app", "IS", "-class", "S", "-spec", "ranks=4 scheme=static(10)"}, &stdout, &stderr)
	if code != 0 || !strings.HasPrefix(stdout.String(), "IS class S, ranks=4 scheme=static(10)\n") {
		t.Errorf("exit %d, stdout:\n%s\nstderr:\n%s", code, &stdout, &stderr)
	}
}

// TestPaperJSON: -test paper -json is one document, its mode and the
// selected tables in print order.
func TestPaperJSON(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-test", "paper", "-quick", "-only", "fig2", "-json"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, &stderr)
	}
	var doc struct {
		Mode   string `json:"mode"`
		Tables []struct {
			Title string `json:"title"`
		} `json:"tables"`
	}
	if err := json.Unmarshal(stdout.Bytes(), &doc); err != nil {
		t.Fatalf("stdout is not one JSON document: %v\n%s", err, &stdout)
	}
	if doc.Mode != "quick (class W)" || len(doc.Tables) != 1 || !strings.HasPrefix(doc.Tables[0].Title, "Figure 2") {
		t.Errorf("mode %q, tables %+v; want quick (class W) and one Figure 2 table", doc.Mode, doc.Tables)
	}
}

// TestMetricsOutPaths: a run that builds many worlds writes one numbered
// dump per world, in construction order; a run that builds one writes the
// path as given. Every dump decodes.
func TestMetricsOutPaths(t *testing.T) {
	dir := t.TempDir()
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-test", "paper", "-quick", "-only", "fig2", "-metrics-out", filepath.Join(dir, "m")}, &stdout, &stderr); code != 0 {
		t.Fatalf("paper: exit %d, stderr:\n%s", code, &stderr)
	}
	lat := filepath.Join(dir, "lat.json")
	if code := run([]string{"-test", "latency", "-size", "64", "-iters", "5", "-metrics-out", lat}, &stdout, &stderr); code != 0 {
		t.Fatalf("latency: exit %d, stderr:\n%s", code, &stderr)
	}
	dumps, err := filepath.Glob(filepath.Join(dir, "m-*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(dumps) < 2 {
		t.Fatalf("paper dumps %v, want one per world, more than one", dumps)
	}
	for i, path := range dumps {
		if name := filepath.Base(path); name != fmt.Sprintf("m-%03d.json", i) {
			t.Errorf("dump %d is %s, want the worlds numbered from m-000.json", i, name)
		}
	}
	if !strings.Contains(stderr.String(), fmt.Sprintf("wrote %d metric dumps", len(dumps))) {
		t.Errorf("stderr %q does not count the paper's dumps", &stderr)
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != len(dumps)+1 {
		t.Errorf("%d files in the directory (%v), want the paper's %d dumps and lat.json", len(entries), err, len(dumps))
	}
	for _, path := range append(dumps, lat) {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := metrics.DecodeDump(f); err != nil {
			t.Errorf("%s: %v", filepath.Base(path), err)
		}
		f.Close()
	}
}

// TestProfiles: -cpuprofile and -memprofile each write a gzipped pprof
// profile of the run.
func TestProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "mem.prof")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-test", "latency", "-size", "4", "-iters", "1", "-cpuprofile", cpu, "-memprofile", mem}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, &stderr)
	}
	for _, path := range []string{cpu, mem} {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(b) < 2 || b[0] != 0x1f || b[1] != 0x8b {
			t.Errorf("%s: %d bytes, not a gzip file", filepath.Base(path), len(b))
		}
	}
}

package bench

import (
	"encoding/json"
	"runtime"
	"strings"
	"testing"

	"ibflow/internal/core"
	"ibflow/internal/mpi"
	"ibflow/internal/nas"
	"ibflow/internal/runner"
)

var quick = Opts{Quick: true}

// pair is the micro-benchmarks' world: two ranks under fc.
func pair(fc core.Params) mpi.Spec { return mpi.Spec{Ranks: 2, Scheme: fc} }

// docJSON marshals a benchmark document exactly as `fcbench -json` emits
// it, the bytes `make bench-diff` compares against the committed file.
func docJSON(t *testing.T, doc any) string {
	t.Helper()
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// withProcs runs fn with GOMAXPROCS at n, the count a sweep's workers
// derive from, and restores it. It fails the test unless the sweep sees
// exactly n workers, so that no comparison is serial against serial.
func withProcs(t *testing.T, n int, fn func() string) string {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	if got := runner.Default(); got != n {
		t.Fatalf("runner.Default() = %d under GOMAXPROCS(%d)", got, n)
	}
	return fn()
}

// TestScalingSerialParallelIdentical pins the parallel runner's contract
// at the bench layer: the connection-scaling document, as fcbench emits
// it, must be byte-identical whatever the worker count.
func TestScalingSerialParallelIdentical(t *testing.T) {
	sweep := func(workers int) string {
		return withProcs(t, workers, func() string { return docJSON(t, ConnScaling(quick)) })
	}
	serial := sweep(1)
	for _, workers := range []int{2, 4} {
		if got := sweep(workers); got != serial {
			t.Errorf("workers=%d: scaling doc diverges from serial sweep:\n%s\nvs\n%s",
				workers, got, serial)
		}
	}
}

// TestPaperSerialParallelIdentical is the same contract for the paper's
// tables, which `fcbench -test paper -json` writes at the default worker
// count as BENCH_paper.json: a bandwidth figure and a NAS table must be
// byte-identical whatever the worker count.
func TestPaperSerialParallelIdentical(t *testing.T) {
	tables := func(workers int) string {
		return withProcs(t, workers, func() string {
			fig5 := Figure5(quick)
			fig10, _ := Figure10(quick)
			return fig5.JSON() + fig10.JSON()
		})
	}
	serial := tables(1)
	for _, workers := range []int{2, 4} {
		if got := tables(workers); got != serial {
			t.Errorf("workers=%d: Figure 5 and Figure 10 diverge from the serial sweep:\n%s\nvs\n%s",
				workers, got, serial)
		}
	}
}

func TestSchemesTrio(t *testing.T) {
	s := Schemes(10, 100)
	if len(s) != 3 || s[0].Kind != core.KindHardware || s[1].Kind != core.KindStatic ||
		s[2].Kind != core.KindDynamic {
		t.Fatalf("Schemes = %+v", s)
	}
	for _, fc := range s {
		if fc.Prepost != 10 {
			t.Errorf("prepost = %d", fc.Prepost)
		}
	}
}

func TestLatencyCalibration(t *testing.T) {
	for _, fc := range Schemes(100, 300) {
		lat := Latency(pair(fc), 4, 100, nil)
		if lat < 5 || lat > 11 {
			t.Errorf("%v: 4B latency = %.2f us, want 5-11 (paper ~7.5)", fc.Kind, lat)
		}
	}
	// Latency grows with size, and 16KB (rendezvous) is well above 4B.
	lat4 := Latency(pair(core.Static(100)), 4, 50, nil)
	lat16k := Latency(pair(core.Static(100)), 16384, 50, nil)
	if lat16k < 2*lat4 {
		t.Errorf("16KB latency %.2f not well above 4B %.2f", lat16k, lat4)
	}
}

func TestBandwidthShapes(t *testing.T) {
	// Figure 3/4 regime: window below pre-post, all schemes comparable.
	var vals []float64
	for _, fc := range Schemes(100, 300) {
		vals = append(vals, Bandwidth(pair(fc), 4, 32, 4, false, nil))
	}
	for i := 1; i < len(vals); i++ {
		ratio := vals[i] / vals[0]
		if ratio < 0.7 || ratio > 1.4 {
			t.Errorf("schemes should be comparable under ample credits: %v", vals)
		}
	}

	// Figure 5/6 regime: window 100 over pre-post 10 — dynamic must beat
	// static clearly (it adapts; static stalls in demoted handshakes).
	dyn := Bandwidth(pair(core.Dynamic(10, 300)), 4, 100, 4, false, nil)
	sta := Bandwidth(pair(core.Static(10)), 4, 100, 4, false, nil)
	if dyn <= 1.2*sta {
		t.Errorf("dynamic %.2f MB/s should clearly beat static %.2f at window >> pre-post", dyn, sta)
	}

	// Blocking beats non-blocking for the static scheme past the credit
	// limit (the paper's rendezvous-handshake explanation).
	staBlk := Bandwidth(pair(core.Static(10)), 4, 100, 4, true, nil)
	if staBlk <= sta {
		t.Errorf("static blocking %.2f should beat non-blocking %.2f", staBlk, sta)
	}

	// Figure 7/8 regime: large messages, all schemes near link rate.
	for _, fc := range Schemes(10, 300) {
		bw := Bandwidth(pair(fc), 32*1024, 32, 3, false, nil)
		if bw < 500 {
			t.Errorf("%v: 32KB bandwidth %.1f MB/s, want near-wire (>500)", fc.Kind, bw)
		}
	}
}

func TestRunNASBasics(t *testing.T) {
	res, err := RunNAS("IS", nas.ClassS, mpi.Spec{Ranks: 4, Scheme: core.Static(10)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verified || res.Time <= 0 || res.Stats.MsgsSent == 0 {
		t.Errorf("result = %+v", res)
	}
	if _, err := RunNAS("XX", nas.ClassS, mpi.Spec{Ranks: 4, Scheme: core.Static(10)}, nil); err == nil {
		t.Error("unknown app accepted")
	}
	if _, err := RunNAS("BT", nas.ClassS, mpi.Spec{Ranks: 8, Scheme: core.Static(10)}, nil); err == nil {
		t.Error("BT on non-square count accepted")
	}
	for app, want := range map[string]string{
		"IS": "ranks=8 scheme=static(1)",
		"BT": "ranks=16 pernode=2 scheme=static(1)",
	} {
		if got := PaperSpec(app, core.Static(1)).String(); got != want {
			t.Errorf("PaperSpec(%s) = %s, want %s", app, got, want)
		}
	}
}

// checkShape fails unless every row of tab has a label for each column
// without a print verb and a number for each column with one, labels
// first.
func checkShape(t *testing.T, tab Table) {
	t.Helper()
	for _, r := range tab.Rows {
		for i, c := range tab.Columns {
			if label := i < len(r.Labels); label != (c.Verb == "") {
				t.Fatalf("%s: row %v: column %q (verb %q) gets a label: %v", tab.Title, r, c.Name, c.Verb, label)
			}
		}
		if len(r.Labels)+len(r.Cells) != len(tab.Columns) {
			t.Fatalf("%s: row %v has %d cells for %d columns", tab.Title, r, len(r.Labels)+len(r.Cells), len(tab.Columns))
		}
	}
}

// TestTableFormatting holds the three renderings to one row: text and
// CSV round each number through its column's verb, JSON writes it whole.
func TestTableFormatting(t *testing.T) {
	tab := Table{Title: "T", Columns: []Column{{Name: "a"}, {"bb", "%.2f"}, {"c", "%.1f%%"}}, Note: "n"}
	tab.AddRow("x", 6.671, 54.27)
	checkShape(t, tab)
	if got, want := tab.String(), "== T ==\na  bb    c    \n-  ----  -----\nx  6.67  54.3%\nnote: n\n"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
	if got, want := tab.CSV(), "a,bb,c\nx,6.67,54.3%\n"; got != want {
		t.Errorf("CSV() = %q, want %q", got, want)
	}
	if got, want := tab.JSON(), `"rows": [
    [
      "x",
      6.671,
      54.27
    ]
  ]`; !strings.Contains(got, want) {
		t.Errorf("JSON() = %s, want rows %s", got, want)
	}
}

func TestFigure2Shape(t *testing.T) {
	tab := Figure2(Opts{Quick: true})
	if len(tab.Rows) != len(quick.LatSizes()) {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	checkShape(t, tab)
	if len(tab.Columns) != 6 {
		t.Fatalf("columns = %v, want size and five schemes", tab.Columns)
	}
}

func TestFigures9And10AndTables(t *testing.T) {
	if testing.Short() {
		t.Skip("full NAS sweep")
	}
	tab9, res9 := Figure9(quick)
	if len(tab9.Rows) != 7 {
		t.Fatalf("figure 9 rows = %d", len(tab9.Rows))
	}
	for _, r := range res9 {
		if !r.Verified {
			t.Errorf("%s in %v failed verification", r.App, r.Spec)
		}
	}

	tab10, res10 := Figure10(quick)
	if len(tab10.Rows) != 7 {
		t.Fatalf("figure 10 rows = %d", len(tab10.Rows))
	}
	// The headline claims: dynamic never degrades much; hardware
	// degrades badly on LU.
	byApp := map[string]map[core.Kind]NASResult{}
	for _, r := range res10 {
		if byApp[r.App] == nil {
			byApp[r.App] = map[core.Kind]NASResult{}
		}
		byApp[r.App][r.Spec.Scheme.Kind] = r
	}
	base9 := map[string]map[core.Kind]float64{}
	for _, r := range res9 {
		if base9[r.App] == nil {
			base9[r.App] = map[core.Kind]float64{}
		}
		base9[r.App][r.Spec.Scheme.Kind] = r.Time.Seconds()
	}
	luHW := byApp["LU"][core.KindHardware].Time.Seconds()/base9["LU"][core.KindHardware] - 1
	luSta := byApp["LU"][core.KindStatic].Time.Seconds()/base9["LU"][core.KindStatic] - 1
	luDyn := byApp["LU"][core.KindDynamic].Time.Seconds()/base9["LU"][core.KindDynamic] - 1
	if luHW < 0.05 {
		t.Errorf("hardware LU degradation = %.1f%%, expected a serious hit", luHW*100)
	}
	// The class W runs are short, so the dynamic scheme's growth
	// transient is not fully amortized (class A gets within a few
	// percent); assert the paper's ordering and a sane bound.
	if luDyn >= luSta || luDyn >= luHW {
		t.Errorf("dynamic LU degradation %.1f%% should be smallest (static %.1f%%, hardware %.1f%%)",
			luDyn*100, luSta*100, luHW*100)
	}
	if luDyn > 0.30 {
		t.Errorf("dynamic LU degradation = %.1f%%, expected modest", luDyn*100)
	}

	t1 := Table1(quick)
	if len(t1.Rows) != 7 {
		t.Fatalf("table 1 rows = %d", len(t1.Rows))
	}
	t2 := Table2(quick)
	if len(t2.Rows) != 7 {
		t.Fatalf("table 2 rows = %d", len(t2.Rows))
	}
}

func TestTable2LUDemand(t *testing.T) {
	if testing.Short() {
		t.Skip("NAS run")
	}
	res, err := RunNAS("LU", nas.ClassW, PaperSpec("LU", core.Dynamic(1, 300)), nil)
	if err != nil {
		t.Fatal(err)
	}
	cg, err := RunNAS("CG", nas.ClassW, PaperSpec("CG", core.Dynamic(1, 300)), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.MaxPosted <= 2*cg.Stats.MaxPosted {
		t.Errorf("LU max posted %d should dwarf CG's %d (paper: 63 vs 3)",
			res.Stats.MaxPosted, cg.Stats.MaxPosted)
	}
}

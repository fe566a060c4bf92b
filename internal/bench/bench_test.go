package bench

import (
	"encoding/json"
	"strings"
	"testing"

	"ibflow/internal/core"
	"ibflow/internal/nas"
)

var quick = Opts{Quick: true}

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

// TestScalingSerialParallelIdentical pins the parallel runner's contract
// at the bench layer: the connection-scaling document, as fcbench emits
// it, must be byte-identical whatever the worker count.
func TestScalingSerialParallelIdentical(t *testing.T) {
	sweep := func(workers int) string {
		return docJSON(t, ConnScaling(Opts{Quick: true, Parallel: workers}))
	}
	serial := sweep(1)
	for _, workers := range []int{2, 4} {
		if got := sweep(workers); got != serial {
			t.Errorf("workers=%d: scaling doc diverges from serial sweep:\n%s\nvs\n%s",
				workers, got, serial)
		}
	}
}

// TestParseScheme runs the tools' -scheme parsing: a combination the
// channel device would refuse is a usage error, and a valid one comes
// back exactly as its constructor builds it — validating must not fill
// in the shared pool's watermark.
func TestParseScheme(t *testing.T) {
	for _, c := range []struct {
		name                       string
		prepost, dynMax, slotBytes int
		want                       core.Params
	}{
		{"hardware", 10, 0, 0, core.Hardware(10)},
		{"static", 1, 0, 0, core.Static(1)},
		{"dynamic", 10, 300, 0, core.Dynamic(10, 300)},
		{"shared", 100, 300, 0, core.Shared(100, 300)},
		{"rdma", 8, 0, 0, core.RDMA(8, 1024)},
		{"rdma", 8, 0, 2048, core.RDMA(8, 2048)},
	} {
		got, err := ParseScheme(c.name, c.prepost, c.dynMax, c.slotBytes)
		if err != nil || got != c.want {
			t.Errorf("ParseScheme(%q, %d, %d, %d) = %+v, %v; want %+v", c.name, c.prepost, c.dynMax, c.slotBytes, got, err, c.want)
		}
	}
	for _, c := range []struct {
		name                       string
		prepost, dynMax, slotBytes int
		want                       string
	}{
		{"static", 0, 300, 0, "prepost 0 < 1"},
		{"hardware", 0, 300, 0, "prepost 0 < 1"},
		{"dynamic", 0, 300, 0, "prepost 0 < 1"},
		{"shared", 0, 300, 0, "prepost 0 < 1"},
		{"rdma", 0, 300, 0, "prepost 0 < 1"},
		{"rdma", 8, 300, 32, "rdma slot size 32 < 64"},
		{"dynamic", 10, 5, 0, "max 5 < initial prepost 10"},
		{"static", 10, 300, 64, "-slotbytes applies to -scheme rdma only"},
		{"nosuch", 10, 300, 0, `unknown scheme "nosuch"`},
	} {
		_, err := ParseScheme(c.name, c.prepost, c.dynMax, c.slotBytes)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("ParseScheme(%q, %d, %d, %d) error = %v, want %q", c.name, c.prepost, c.dynMax, c.slotBytes, err, c.want)
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
		lat := Latency(fc, 4, 100, nil)
		if lat < 5 || lat > 11 {
			t.Errorf("%v: 4B latency = %.2f us, want 5-11 (paper ~7.5)", fc.Kind, lat)
		}
	}
	// Latency grows with size, and 16KB (rendezvous) is well above 4B.
	lat4 := Latency(core.Static(100), 4, 50, nil)
	lat16k := Latency(core.Static(100), 16384, 50, nil)
	if lat16k < 2*lat4 {
		t.Errorf("16KB latency %.2f not well above 4B %.2f", lat16k, lat4)
	}
}

func TestBandwidthShapes(t *testing.T) {
	// Figure 3/4 regime: window below pre-post, all schemes comparable.
	var vals []float64
	for _, fc := range Schemes(100, 300) {
		vals = append(vals, Bandwidth(fc, 4, 32, 4, false, nil))
	}
	for i := 1; i < len(vals); i++ {
		ratio := vals[i] / vals[0]
		if ratio < 0.7 || ratio > 1.4 {
			t.Errorf("schemes should be comparable under ample credits: %v", vals)
		}
	}

	// Figure 5/6 regime: window 100 over pre-post 10 — dynamic must beat
	// static clearly (it adapts; static stalls in demoted handshakes).
	dyn := Bandwidth(core.Dynamic(10, 300), 4, 100, 4, false, nil)
	sta := Bandwidth(core.Static(10), 4, 100, 4, false, nil)
	if dyn <= 1.2*sta {
		t.Errorf("dynamic %.2f MB/s should clearly beat static %.2f at window >> pre-post", dyn, sta)
	}

	// Blocking beats non-blocking for the static scheme past the credit
	// limit (the paper's rendezvous-handshake explanation).
	staBlk := Bandwidth(core.Static(10), 4, 100, 4, true, nil)
	if staBlk <= sta {
		t.Errorf("static blocking %.2f should beat non-blocking %.2f", staBlk, sta)
	}

	// Figure 7/8 regime: large messages, all schemes near link rate.
	for _, fc := range Schemes(10, 300) {
		bw := Bandwidth(fc, 32*1024, 32, 3, false, nil)
		if bw < 500 {
			t.Errorf("%v: 32KB bandwidth %.1f MB/s, want near-wire (>500)", fc.Kind, bw)
		}
	}
}

func TestRunNASBasics(t *testing.T) {
	res, err := RunNAS("IS", nas.ClassS, 4, core.Static(10))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Verified || res.Time <= 0 || res.TotalMsgs == 0 {
		t.Errorf("result = %+v", res)
	}
	if _, err := RunNAS("XX", nas.ClassS, 4, core.Static(10)); err == nil {
		t.Error("unknown app accepted")
	}
	if _, err := RunNAS("BT", nas.ClassS, 8, core.Static(10)); err == nil {
		t.Error("BT on non-square count accepted")
	}
	if ProcsFor("BT") != 16 || ProcsFor("IS") != 8 {
		t.Error("ProcsFor wrong")
	}
}

func TestTableFormatting(t *testing.T) {
	tab := Table{Title: "T", Columns: []string{"a", "bb"}, Note: "n"}
	tab.AddRow("x", "1")
	s := tab.String()
	for _, want := range []string{"== T ==", "a", "bb", "x", "1", "note: n"} {
		if !strings.Contains(s, want) {
			t.Errorf("missing %q in:\n%s", want, s)
		}
	}
}

func TestFigure2Shape(t *testing.T) {
	tab := Figure2(Opts{Quick: true})
	if len(tab.Rows) != len(quick.latSizes()) {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	for _, r := range tab.Rows {
		if len(r) != 4 {
			t.Fatalf("row = %v", r)
		}
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
			t.Errorf("%s/%v failed verification", r.App, r.Scheme)
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
		byApp[r.App][r.Scheme] = r
	}
	base9 := map[string]map[core.Kind]float64{}
	for _, r := range res9 {
		if base9[r.App] == nil {
			base9[r.App] = map[core.Kind]float64{}
		}
		base9[r.App][r.Scheme] = r.Time.Seconds()
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
	res, err := RunNAS("LU", nas.ClassW, 8, core.Dynamic(1, 300))
	if err != nil {
		t.Fatal(err)
	}
	cg, err := RunNAS("CG", nas.ClassW, 8, core.Dynamic(1, 300))
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxPosted <= 2*cg.MaxPosted {
		t.Errorf("LU max posted %d should dwarf CG's %d (paper: 63 vs 3)",
			res.MaxPosted, cg.MaxPosted)
	}
}

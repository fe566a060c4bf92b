package bench

import (
	"fmt"

	"ibflow/internal/core"
	"ibflow/internal/mpi"
	"ibflow/internal/nas"
	"ibflow/internal/runner"
)

// Opts scales the experiment suite: Quick uses class W and fewer sweep
// points (for tests and testing.B); the full suite mirrors the paper's
// class A setup.
type Opts struct {
	Quick bool

	// Tune, when non-nil, is applied to the options of every world the
	// figures and tables build, just before construction — the hook
	// fcbench's -metrics-out uses to attach a fresh metrics registry (and,
	// for a perfetto dump, a trace ring) per world. A sweep with a Tune
	// hook builds its worlds one at a time (see Workers).
	// ConnScaling and EndpointContention read only Quick.
	Tune func(*mpi.Options)
}

// Workers is the worker count of a sweep whose worlds get tune: one per
// CPU (runner.Default, so GOMAXPROCS sets it), or one when tune is set,
// since a hook may keep state in world-construction order. Worlds are
// share-nothing (see internal/runner), so a sweep's results are
// byte-identical for every count; only wall-clock time changes.
func Workers(tune func(*mpi.Options)) int {
	if tune != nil {
		return 1
	}
	return runner.Default()
}

func (o Opts) class() nas.Class {
	if o.Quick {
		return nas.ClassW
	}
	return nas.ClassA
}

func (o Opts) latIters() int {
	if o.Quick {
		return 50
	}
	return 200
}

// LatSizes returns the message sizes Figure 2 sweeps; fcbench's -test
// latency sweeps the full suite's.
func (o Opts) LatSizes() []int {
	if o.Quick {
		return []int{4, 256, 4096, 16384}
	}
	return []int{4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384}
}

func (o Opts) bwReps() int {
	if o.Quick {
		return 4
	}
	return 12
}

// Windows returns the windows Figures 3-8 sweep; fcbench's -test
// bandwidth sweeps the full suite's.
func (o Opts) Windows() []int {
	if o.Quick {
		return []int{1, 4, 16, 32, 64, 100}
	}
	return []int{1, 2, 4, 8, 16, 24, 32, 48, 64, 80, 100}
}

// dynMax bounds dynamic growth in all experiments.
const dynMax = 300

// schemeNames heads the columns of the paper's three schemes.
var schemeNames = []string{"hardware", "static", "dynamic"}

// ample provisions Figures 2 and 3, whose 100 buffers outnumber every
// window: the paper's three schemes pre-post 100, and the repository's
// two extensions follow suit (the shared pool starts at 100 and grows to
// dynMax, the ring pins 100 slots of 2048 bytes).
var ample = Provision{Prepost: 100, DynMax: dynMax, PoolPrepost: 100, PoolMax: dynMax, RingSlots: 100, SlotBytes: 2048}

// extNote marks the two columns Figures 2 and 3 add to the paper's.
const extNote = "; shared and rdma are this repository's extensions, not the paper's"

// schemeFigure measures one cell per (point, scheme) pair, each in its
// own world across the worker pool, into a table with one row per point
// and one column per scheme printed through verb.
func schemeFigure(o Opts, title, label, verb, note string, points []int, schemes []core.Params,
	cell func(point int, fc core.Params) float64) Table {
	names := make([]string, len(schemes))
	for i, fc := range schemes {
		names[i] = fc.Kind.String()
	}
	t := Table{Title: title, Columns: columns(label, verb, names...), Note: note}
	ns := len(schemes)
	vals := runner.Map(len(points)*ns, Workers(o.Tune), func(k int) float64 {
		return cell(points[k/ns], schemes[k%ns])
	})
	for i, p := range points {
		t.AddRow(fmt.Sprint(p), vals[i*ns:(i+1)*ns]...)
	}
	return t
}

// Figure2 reproduces the MPI latency plot: one-way microseconds per
// message size under each scheme, with ample (100) pre-posted buffers.
func Figure2(o Opts) Table {
	return schemeFigure(o, "Figure 2: MPI latency (us, one-way)", "size(B)", "%.2f",
		"ping-pong, pre-post 100; paper: all three schemes comparable (~7.5us small)"+extNote,
		o.LatSizes(), ample.Schemes(), func(size int, fc core.Params) float64 {
			return Latency(mpi.Spec{Ranks: 2, Scheme: fc}, size, o.latIters(), o.Tune)
		})
}

// bwFigure is the shared shape of Figures 3-8.
func bwFigure(o Opts, title, note string, size int, schemes []core.Params, blocking bool) Table {
	return schemeFigure(o, title, "window", "%.1f", note, o.Windows(), schemes, func(win int, fc core.Params) float64 {
		return Bandwidth(mpi.Spec{Ranks: 2, Scheme: fc}, size, win, o.bwReps(), blocking, o.Tune)
	})
}

// Figure3 is bandwidth, 4-byte messages, pre-post 100, blocking.
func Figure3(o Opts) Table {
	return bwFigure(o, "Figure 3: bandwidth MB/s (4B, pre-post 100, blocking)",
		"paper: all schemes comparable while window <= pre-post"+extNote, 4, ample.Schemes(), true)
}

// Figure4 is bandwidth, 4-byte messages, pre-post 100, non-blocking.
func Figure4(o Opts) Table {
	return bwFigure(o, "Figure 4: bandwidth MB/s (4B, pre-post 100, non-blocking)",
		"paper: all schemes comparable while window <= pre-post", 4, Schemes(100, dynMax), false)
}

// Figure5 is bandwidth, 4-byte messages, pre-post 10, blocking.
func Figure5(o Opts) Table {
	return bwFigure(o, "Figure 5: bandwidth MB/s (4B, pre-post 10, blocking)",
		"paper: beyond window 10 dynamic adapts and wins; static stalls worst", 4, Schemes(10, dynMax), true)
}

// Figure6 is bandwidth, 4-byte messages, pre-post 10, non-blocking.
func Figure6(o Opts) Table {
	return bwFigure(o, "Figure 6: bandwidth MB/s (4B, pre-post 10, non-blocking)",
		"paper: dynamic best past the credit limit; user-level blocking beats non-blocking", 4, Schemes(10, dynMax), false)
}

// Figure7 is bandwidth, 32 KB messages, pre-post 10, blocking.
func Figure7(o Opts) Table {
	return bwFigure(o, "Figure 7: bandwidth MB/s (32KB, pre-post 10, blocking)",
		"paper: rendezvous self-regulates; all three schemes do well", 32*1024, Schemes(10, dynMax), true)
}

// Figure8 is bandwidth, 32 KB messages, pre-post 10, non-blocking.
func Figure8(o Opts) Table {
	return bwFigure(o, "Figure 8: bandwidth MB/s (32KB, pre-post 10, non-blocking)",
		"paper: non-blocking overlaps handshakes and beats blocking", 32*1024, Schemes(10, dynMax), false)
}

// nasApps is the paper's application order.
var nasApps = []string{"IS", "FT", "LU", "CG", "MG", "BT", "SP"}

// Figure9 reproduces the NAS runtimes with 100 pre-posted buffers.
func Figure9(o Opts) (Table, []NASResult) {
	t := Table{
		Title:   fmt.Sprintf("Figure 9: NAS class %v runtimes (virtual seconds, pre-post 100)", o.class()),
		Columns: columns("app", "%.4f", schemeNames...),
		Note:    "paper: schemes within 2-3% except LU, where hardware wins ~5-6% (ECM overhead)",
	}
	schemes := Schemes(100, dynMax)
	ns := len(schemes)
	results := runner.Map(len(nasApps)*ns, Workers(o.Tune), func(k int) NASResult {
		app := nasApps[k/ns]
		res, err := RunNAS(app, o.class(), PaperSpec(app, schemes[k%ns]), o.Tune)
		if err != nil {
			panic(err)
		}
		if !res.Verified {
			panic(fmt.Sprintf("bench: %s failed verification: %v", app, res.VerifyErrs))
		}
		return res
	})
	var all []NASResult
	for i, app := range nasApps {
		var row []float64
		for _, res := range results[i*ns : (i+1)*ns] {
			all = append(all, res)
			row = append(row, res.Time.Seconds())
		}
		t.AddRow(app, row...)
	}
	return t, all
}

// Figure10 reproduces the performance degradation when the pre-post count
// drops from 100 to 1.
func Figure10(o Opts) (Table, []NASResult) {
	t := Table{
		Title:   fmt.Sprintf("Figure 10: NAS class %v degradation, pre-post 100 -> 1 (%%)", o.class()),
		Columns: columns("app", "%.1f%%", schemeNames...),
		Note:    "paper: hardware collapses on LU/MG (RNR storms); static loses up to 13% (LU); dynamic ~0%",
	}
	// Cells: per app, three baseline runs (pre-post 100) then three
	// degraded runs (pre-post 1), flattened app-major so reassembly below
	// reproduces the classic serial order exactly.
	baseSchemes := Schemes(100, dynMax)
	degSchemes := Schemes(1, dynMax)
	ns := len(baseSchemes)
	results := runner.Map(len(nasApps)*2*ns, Workers(o.Tune), func(k int) NASResult {
		app := nasApps[k/(2*ns)]
		phase, scheme := (k%(2*ns))/ns, k%ns
		fc := baseSchemes[scheme]
		if phase == 1 {
			fc = degSchemes[scheme]
		}
		res, err := RunNAS(app, o.class(), PaperSpec(app, fc), o.Tune)
		if err != nil {
			panic(err)
		}
		if phase == 1 && !res.Verified {
			panic(fmt.Sprintf("bench: %s failed verification at pre-post 1: %v", app, res.VerifyErrs))
		}
		return res
	})
	var all []NASResult
	for a, app := range nasApps {
		var row []float64
		for i := 0; i < ns; i++ {
			base := results[a*2*ns+i].Time.Seconds()
			res := results[a*2*ns+ns+i]
			all = append(all, res)
			row = append(row, (res.Time.Seconds()-base)/base*100)
		}
		t.AddRow(app, row...)
	}
	return t, all
}

// Table1 reproduces the explicit credit message counts under the static
// scheme (per connection per process) against total message counts.
func Table1(o Opts) Table {
	t := Table{
		Title:   fmt.Sprintf("Table 1: explicit credit messages, user-level static, class %v", o.class()),
		Columns: []Column{{Name: "app"}, {"#ECM/conn", "%.1f"}, {"#total/conn", "%.1f"}, {"ECM share", "%.1f%%"}},
		Note:    "paper: LU ~18% ECMs; all other applications near zero",
	}
	for _, app := range nasApps {
		res, err := RunNAS(app, o.class(), PaperSpec(app, core.Static(100)), o.Tune)
		if err != nil {
			panic(err)
		}
		total := res.Stats.MsgsSent // all messages, data and control
		totalPerConn := float64(total) / float64(res.Stats.Conns)
		share := 0.0
		if total > 0 {
			share = float64(res.Stats.ECMsSent) / float64(total) * 100
		}
		t.AddRow(app, res.ECMPerConn, totalPerConn, share)
	}
	return t
}

// Table2 reproduces the maximum pre-posted buffer counts reached by the
// dynamic scheme when every connection starts from a single buffer.
func Table2(o Opts) Table {
	t := Table{
		Title:   fmt.Sprintf("Table 2: max posted buffers, user-level dynamic from 1, class %v", o.class()),
		Columns: columns("app", "%.0f", "max #buffers", "growth events"),
		Note:    "paper: IS 4, FT 4, LU 63, CG 3, MG 6, BT 7, SP 7",
	}
	for _, app := range nasApps {
		res, err := RunNAS(app, o.class(), PaperSpec(app, core.Dynamic(1, dynMax)), o.Tune)
		if err != nil {
			panic(err)
		}
		t.AddRow(app, float64(res.Stats.MaxPosted), float64(res.Stats.GrowthEvents))
	}
	return t
}

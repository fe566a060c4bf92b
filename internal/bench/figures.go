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

	// Parallel fans a sweep's independent worlds out across OS threads
	// (see internal/runner): 0 selects one worker per CPU, 1 recovers
	// the classic serial loop. Worlds are share-nothing, so results are
	// byte-identical for every value — only wall-clock time changes.
	// When Parallel != 1, Tune must be safe to call from concurrent
	// goroutines (cmd/experiments pins Parallel to 1 when its Tune
	// accumulates state).
	Parallel int

	// Tune, when non-nil, is applied to the options of every world the
	// figures and tables build, just before construction — the hook
	// cmd/experiments uses to attach a fresh metrics registry (and tracer)
	// per world. ConnScaling and EndpointContention read only Quick and
	// Parallel.
	Tune func(*mpi.Options)
}

// workers resolves Parallel to an explicit worker count.
func (o Opts) workers() int {
	if o.Parallel == 0 {
		return runner.Default()
	}
	return o.Parallel
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

func (o Opts) latSizes() []int {
	if o.Quick {
		return []int{4, 256, 4096, 16384}
	}
	return []int{4, 16, 64, 256, 1024, 2048, 4096, 8192, 16384}
}

func (o Opts) bwReps() int {
	if o.Quick {
		return 4
	}
	return 12
}

func (o Opts) windows() []int {
	if o.Quick {
		return []int{1, 4, 16, 32, 64, 100}
	}
	return []int{1, 2, 4, 8, 16, 24, 32, 48, 64, 80, 100}
}

// dynMax bounds dynamic growth in all experiments.
const dynMax = 300

var schemeNames = []string{"hardware", "static", "dynamic"}

// Figure2 reproduces the MPI latency plot: one-way microseconds per
// message size under each scheme, with ample (100) pre-posted buffers.
func Figure2(o Opts) Table {
	t := Table{
		Title:   "Figure 2: MPI latency (us, one-way)",
		Columns: append([]string{"size(B)"}, schemeNames...),
		Note:    "ping-pong, pre-post 100; paper: all three schemes comparable (~7.5us small)",
	}
	sizes := o.latSizes()
	schemes := Schemes(100, dynMax)
	vals := runner.Map(len(sizes)*len(schemes), o.workers(), func(k int) float64 {
		return Latency(mpi.Spec{Ranks: 2, Scheme: schemes[k%len(schemes)]}, sizes[k/len(schemes)], o.latIters(), o.Tune)
	})
	for i, size := range sizes {
		row := []string{fmt.Sprint(size)}
		for j := range schemes {
			row = append(row, f2(vals[i*len(schemes)+j]))
		}
		t.AddRow(row...)
	}
	return t
}

// bwFigure is the shared shape of Figures 3-8.
func bwFigure(o Opts, title, note string, size, prepost int, blocking bool) Table {
	t := Table{
		Title:   title,
		Columns: append([]string{"window"}, schemeNames...),
		Note:    note,
	}
	wins := o.windows()
	schemes := Schemes(prepost, dynMax)
	vals := runner.Map(len(wins)*len(schemes), o.workers(), func(k int) float64 {
		return Bandwidth(mpi.Spec{Ranks: 2, Scheme: schemes[k%len(schemes)]}, size, wins[k/len(schemes)], o.bwReps(), blocking, o.Tune)
	})
	for i, win := range wins {
		row := []string{fmt.Sprint(win)}
		for j := range schemes {
			row = append(row, f1(vals[i*len(schemes)+j]))
		}
		t.AddRow(row...)
	}
	return t
}

// Figure3 is bandwidth, 4-byte messages, pre-post 100, blocking.
func Figure3(o Opts) Table {
	return bwFigure(o, "Figure 3: bandwidth MB/s (4B, pre-post 100, blocking)",
		"paper: all schemes comparable while window <= pre-post", 4, 100, true)
}

// Figure4 is bandwidth, 4-byte messages, pre-post 100, non-blocking.
func Figure4(o Opts) Table {
	return bwFigure(o, "Figure 4: bandwidth MB/s (4B, pre-post 100, non-blocking)",
		"paper: all schemes comparable while window <= pre-post", 4, 100, false)
}

// Figure5 is bandwidth, 4-byte messages, pre-post 10, blocking.
func Figure5(o Opts) Table {
	return bwFigure(o, "Figure 5: bandwidth MB/s (4B, pre-post 10, blocking)",
		"paper: beyond window 10 dynamic adapts and wins; static stalls worst", 4, 10, true)
}

// Figure6 is bandwidth, 4-byte messages, pre-post 10, non-blocking.
func Figure6(o Opts) Table {
	return bwFigure(o, "Figure 6: bandwidth MB/s (4B, pre-post 10, non-blocking)",
		"paper: dynamic best past the credit limit; user-level blocking beats non-blocking", 4, 10, false)
}

// Figure7 is bandwidth, 32 KB messages, pre-post 10, blocking.
func Figure7(o Opts) Table {
	return bwFigure(o, "Figure 7: bandwidth MB/s (32KB, pre-post 10, blocking)",
		"paper: rendezvous self-regulates; all three schemes do well", 32*1024, 10, true)
}

// Figure8 is bandwidth, 32 KB messages, pre-post 10, non-blocking.
func Figure8(o Opts) Table {
	return bwFigure(o, "Figure 8: bandwidth MB/s (32KB, pre-post 10, non-blocking)",
		"paper: non-blocking overlaps handshakes and beats blocking", 32*1024, 10, false)
}

// nasApps is the paper's application order.
var nasApps = []string{"IS", "FT", "LU", "CG", "MG", "BT", "SP"}

// Figure9 reproduces the NAS runtimes with 100 pre-posted buffers.
func Figure9(o Opts) (Table, []NASResult) {
	t := Table{
		Title:   fmt.Sprintf("Figure 9: NAS class %v runtimes (virtual seconds, pre-post 100)", o.class()),
		Columns: append([]string{"app"}, schemeNames...),
		Note:    "paper: schemes within 2-3% except LU, where hardware wins ~5-6% (ECM overhead)",
	}
	schemes := Schemes(100, dynMax)
	ns := len(schemes)
	results := runner.Map(len(nasApps)*ns, o.workers(), func(k int) NASResult {
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
		row := []string{app}
		for j := range schemes {
			res := results[i*ns+j]
			all = append(all, res)
			row = append(row, fmt.Sprintf("%.4f", res.Time.Seconds()))
		}
		t.AddRow(row...)
	}
	return t, all
}

// Figure10 reproduces the performance degradation when the pre-post count
// drops from 100 to 1.
func Figure10(o Opts) (Table, []NASResult) {
	t := Table{
		Title:   fmt.Sprintf("Figure 10: NAS class %v degradation, pre-post 100 -> 1 (%%)", o.class()),
		Columns: append([]string{"app"}, schemeNames...),
		Note:    "paper: hardware collapses on LU/MG (RNR storms); static loses up to 13% (LU); dynamic ~0%",
	}
	// Cells: per app, three baseline runs (pre-post 100) then three
	// degraded runs (pre-post 1), flattened app-major so reassembly below
	// reproduces the classic serial order exactly.
	baseSchemes := Schemes(100, dynMax)
	degSchemes := Schemes(1, dynMax)
	ns := len(baseSchemes)
	results := runner.Map(len(nasApps)*2*ns, o.workers(), func(k int) NASResult {
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
		row := []string{app}
		for i := 0; i < ns; i++ {
			base := results[a*2*ns+i].Time.Seconds()
			res := results[a*2*ns+ns+i]
			all = append(all, res)
			row = append(row, pct((res.Time.Seconds()-base)/base*100))
		}
		t.AddRow(row...)
	}
	return t, all
}

// Table1 reproduces the explicit credit message counts under the static
// scheme (per connection per process) against total message counts.
func Table1(o Opts) Table {
	t := Table{
		Title:   fmt.Sprintf("Table 1: explicit credit messages, user-level static, class %v", o.class()),
		Columns: []string{"app", "#ECM/conn", "#total/conn", "ECM share"},
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
		t.AddRow(app, f1(res.ECMPerConn), f1(totalPerConn), pct(share))
	}
	return t
}

// Table2 reproduces the maximum pre-posted buffer counts reached by the
// dynamic scheme when every connection starts from a single buffer.
func Table2(o Opts) Table {
	t := Table{
		Title:   fmt.Sprintf("Table 2: max posted buffers, user-level dynamic from 1, class %v", o.class()),
		Columns: []string{"app", "max #buffers", "growth events"},
		Note:    "paper: IS 4, FT 4, LU 63, CG 3, MG 6, BT 7, SP 7",
	}
	for _, app := range nasApps {
		res, err := RunNAS(app, o.class(), PaperSpec(app, core.Dynamic(1, dynMax)), o.Tune)
		if err != nil {
			panic(err)
		}
		t.AddRow(app, fmt.Sprint(res.Stats.MaxPosted), fmt.Sprint(res.Stats.GrowthEvents))
	}
	return t
}

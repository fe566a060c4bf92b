package analysis_test

import (
	"go/types"
	"slices"
	"sort"
	"strings"
	"testing"

	"ibflow/internal/analysis"
	"ibflow/internal/analysis/analysistest"
)

func TestSimHotpath(t *testing.T) {
	analysistest.RunTree(t, analysis.SimHotpath, testdata("simhotpath"))
}

func TestHotAlloc(t *testing.T) {
	analysistest.RunTree(t, analysis.HotAlloc, testdata("hotalloc"))
}

// TestHotAllocCrossPackage analyzes the hotalloc fixture's dependency
// package with whole-tree facts: its schedule site is hot only because a
// handler in the root package calls into it — the direction the real
// module exercises when timer callbacks in one package drive schedule
// sites in the transport package they import.
func TestHotAllocCrossPackage(t *testing.T) {
	tr := analysistest.LoadTree(t, testdata("hotalloc"))
	lib := tr.Pkgs["hotalloc/lib"]
	if lib == nil {
		t.Fatal("fixture sub-package hotalloc/lib not loaded")
	}
	diags, err := analysis.RunWithFacts(analysis.HotAlloc, lib, tr.Facts)
	if err != nil {
		t.Fatal(err)
	}
	analysistest.Check(t, lib, diags)

	// Without cross-package facts the same site must pass: the proof
	// that the finding is carried by fact propagation, not local syntax.
	cold, err := analysis.RunWithFacts(analysis.HotAlloc, lib, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(cold) != 0 {
		t.Errorf("without facts lib should be clean, got %v", cold)
	}
}

// TestFactPropagation checks the fact set directly: parks flow bottom-up
// across packages, roots seed reachability, and provenance chains render
// position-free.
func TestFactPropagation(t *testing.T) {
	tr := analysistest.LoadTree(t, testdata("simhotpath"))
	fs := tr.Facts

	helper := fs.Fact("simhotpath/dep.Helper")
	if helper == nil {
		t.Fatal("no fact for simhotpath/dep.Helper")
	}
	if !helper.Parks {
		t.Error("dep.Helper should inherit Parks from dep.inner")
	}
	if helper.ParkVia != "simhotpath/dep.inner" {
		t.Errorf("dep.Helper.ParkVia = %q, want simhotpath/dep.inner", helper.ParkVia)
	}

	sleep := fs.Fact("(*simhotpath/sim.Proc).Sleep")
	if sleep == nil || !sleep.Parks {
		t.Error("Proc.Sleep should park (derived from park's coroutine yield, not hardcoded)")
	}

	onEvent := fs.Fact("(*simhotpath.crosser).OnEvent")
	if onEvent == nil {
		t.Fatal("no fact for crosser.OnEvent")
	}
	if onEvent.Root != analysis.RootHandler {
		t.Errorf("crosser.OnEvent root = %v, want RootHandler", onEvent.Root)
	}
	if !onEvent.Parks {
		t.Error("crosser.OnEvent should inherit Parks across the package boundary")
	}
	chain := analysis.ParkChain(onEvent, fs.Fact)
	want := "calls dep.Helper, which calls dep.inner, which receives from a channel"
	if chain != want {
		t.Errorf("ParkChain = %q, want %q", chain, want)
	}
	if strings.ContainsAny(chain, ":\\") || strings.Contains(chain, ".go") {
		t.Errorf("ParkChain %q must stay position-free (the baseline keys on messages)", chain)
	}

	// Reachability: dep.Helper is hot via the handler that calls it.
	if root, hot := fs.HotVia("simhotpath/dep.Helper"); !hot {
		t.Error("dep.Helper should be hot-reachable")
	} else if root != "(*simhotpath.crosser).OnEvent" {
		t.Errorf("dep.Helper hot via %q, want (*simhotpath.crosser).OnEvent", root)
	}
	// dep.Pure is called from a handler too, so it is hot — hot is about
	// reachability, parking about behavior; only the combination reports.
	if _, hot := fs.HotVia("simhotpath/dep.Pure"); !hot {
		t.Error("dep.Pure is called from a handler and should be hot-reachable")
	}
	// dep.WaitAround is never called from event context.
	if root, hot := fs.HotVia("simhotpath/dep.WaitAround"); hot {
		t.Errorf("dep.WaitAround should not be hot-reachable (got root %q)", root)
	}

	// Goroutine bodies are not event context: spawner starts one but the
	// literal's park stays out of spawner's facts.
	spawner := fs.Fact("simhotpath.spawner")
	if spawner == nil {
		t.Fatal("no fact for simhotpath.spawner")
	}
	if spawner.Parks {
		t.Error("spawner must not inherit the goroutine body's park")
	}
	// Rescheduling through the handler path is not a park.
	clean := fs.Fact("(*simhotpath.clean).OnEvent")
	if clean == nil || clean.Parks {
		t.Errorf("clean.OnEvent should reschedule without parking, got %+v", clean)
	}
}

// TestRealSimParkFacts pins the hot-path contract to the real simulator,
// not only the fixtures' miniature sim: the process-side primitives must
// carry Parks, derived from the coroutine yield in (*Proc).park, and the
// engine side of the pair (the resume) must not. A tree that changes how park hands
// the CPU back without teaching facts.go reads Parks=false everywhere
// here, and simhotpath goes blind while fclint still says "ok". And a
// process parks in exactly two places: no other exported function of the
// simulator may carry Parks.
func TestRealSimParkFacts(t *testing.T) {
	mod, err := analysis.LoadModule("../..", []string{"./internal/sim"})
	if err != nil {
		t.Fatal(err)
	}
	fs := analysis.BuildFacts(mod)
	const sim = "ibflow/internal/sim."
	for key, chain := range map[string]string{
		"(*" + sim + "Proc).park":  "yields its coroutine to the engine",
		"(*" + sim + "Proc).Sleep": "calls (*sim.Proc).park, which yields its coroutine to the engine",
		"(*" + sim + "Gate).Wait":  "calls (*sim.Proc).park, which yields its coroutine to the engine",
	} {
		f := fs.Fact(key)
		if f == nil {
			t.Errorf("no fact for %s", key)
			continue
		}
		if !f.Parks {
			t.Errorf("%s must carry Parks: it hands the CPU back to the engine", key)
			continue
		}
		if got := analysis.ParkChain(f, fs.Fact); got != chain {
			t.Errorf("ParkChain(%s) = %q, want %q", key, got, chain)
		}
	}
	for _, key := range []string{
		"(*" + sim + "Gate).Release",
		"(*" + sim + "Proc).OnEvent",
		"(*" + sim + "Engine).dispatch",
		"(*" + sim + "Engine).Close",
	} {
		f := fs.Fact(key)
		if f == nil {
			t.Errorf("no fact for %s", key)
		} else if f.Parks {
			t.Errorf("%s must not carry Parks (%s): it resumes a process and returns when that process yields",
				key, analysis.ParkChain(f, fs.Fact))
		}
	}
	if f := fs.Fact("(*" + sim + "Proc).OnEvent"); f != nil && f.Root != analysis.RootHandler {
		t.Errorf("Proc.OnEvent root = %v, want RootHandler", f.Root)
	}

	var parks []string
	for _, pkg := range mod.DepOrder {
		if pkg.Path != "ibflow/internal/sim" {
			continue
		}
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			var funcs []*types.Func
			switch obj := scope.Lookup(name).(type) {
			case *types.Func:
				funcs = append(funcs, obj)
			case *types.TypeName:
				if named, ok := obj.Type().(*types.Named); ok {
					for i := 0; i < named.NumMethods(); i++ {
						funcs = append(funcs, named.Method(i))
					}
				}
			}
			for _, fn := range funcs {
				if f := fs.Fact(fn.FullName()); fn.Exported() && f != nil && f.Parks {
					parks = append(parks, fn.FullName())
				}
			}
		}
	}
	sort.Strings(parks)
	if want := []string{"(*" + sim + "Gate).Wait", "(*" + sim + "Proc).Sleep"}; !slices.Equal(parks, want) {
		t.Errorf("exported functions of internal/sim that park: %v, want exactly %v", parks, want)
	}
}

// TestShortKey pins the diagnostic rendering of function keys.
func TestShortKey(t *testing.T) {
	cases := map[string]string{
		"(*ibflow/internal/ib.QP).pump":      "(*ib.QP).pump",
		"(ibflow/internal/sim.Time).Seconds": "(sim.Time).Seconds",
		"ibflow/internal/sim.NewTimer":       "sim.NewTimer",
		"simhotpath/dep.Helper":              "dep.Helper",
		"main.run":                           "main.run",
		"closure@/a/b/file.go:10:2":          "a closure",
	}
	for in, want := range cases {
		if got := analysis.ShortKey(in); got != want {
			t.Errorf("ShortKey(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestHotAllocAllowsRefill runs the struct-allocation rule through the
// suppression pipeline: the fixture's freelist refill carries a
// fclint:allow and vanishes, the two per-event allocations beside it
// survive, and the allow is not stale.
func TestHotAllocAllowsRefill(t *testing.T) {
	tr := analysistest.LoadTree(t, testdata("hotalloc"))
	pkg := tr.Pkgs["hotalloc"]
	diags, err := analysis.RunWithFacts(analysis.HotAlloc, pkg, tr.Facts)
	if err != nil {
		t.Fatal(err)
	}
	structs := func(ds []analysis.Diagnostic) (n int) {
		for _, d := range ds {
			if strings.Contains(d.Message, "state") {
				n++
			}
		}
		return n
	}
	if got := structs(diags); got != 3 {
		t.Fatalf("raw struct-allocation findings = %d, want 3 (&state{}, new(state), the refill): %v", got, diags)
	}
	allows, bad := analysis.CollectAllows(pkg.Fset, pkg.Files, analysis.KnownNames())
	if len(allows) != 1 || len(bad) != 0 {
		t.Fatalf("allows = %v, malformed = %v, want the refill's one allow", allows, bad)
	}
	kept, _ := analysis.FilterAllowedStale(pkg.Fset, diags, allows)
	if got := structs(kept); got != 2 {
		t.Errorf("struct-allocation findings after filtering = %d, want 2: %v", got, kept)
	}
	for _, d := range kept {
		if strings.Contains(d.Message, "builder).refill") {
			t.Errorf("the allowed refill survived: %s", d.Message)
		}
	}
}

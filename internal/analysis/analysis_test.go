package analysis_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"
	"testing"

	"ibflow/internal/analysis"
	"ibflow/internal/analysis/analysistest"
)

func testdata(pkg string) string {
	return filepath.Join("testdata", "src", pkg)
}

func TestSimWallclock(t *testing.T) {
	analysistest.Run(t, analysis.SimWallclock, testdata("simwallclock"))
}

func TestSimGoroutine(t *testing.T) {
	analysistest.Run(t, analysis.SimGoroutine, testdata("simgoroutine"))
}

// TestSimGoroutineSanctionedPool runs simgoroutine over the runner
// fixture: a worker pool full of go statements, sync primitives and
// channels that must produce zero findings, because the worker-pool
// package is the sanctioned home of real concurrency.
func TestSimGoroutineSanctionedPool(t *testing.T) {
	analysistest.Run(t, analysis.SimGoroutine, testdata("runner"))
}

// TestSimGoroutinePoolEngineImportBan checks the inverted rule directly:
// inside the sanctioned pool package, importing ibflow/internal/sim is
// the finding (the fixture cannot express this, since analysistest
// packages may only import the standard library). The check is purely
// syntactic, so a hand-built LoadedPackage with no type information
// suffices.
func TestSimGoroutinePoolEngineImportBan(t *testing.T) {
	src := `package runner

import (
	"sync"

	sim "ibflow/internal/sim"
)

func leak(e *sim.Engine) {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); _ = e }()
	wg.Wait()
}
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "runner.go", src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	pkg := &analysis.LoadedPackage{
		Path:  "ibflow/internal/runner",
		Fset:  fset,
		Files: []*ast.File{f},
		Types: types.NewPackage("ibflow/internal/runner", "runner"),
	}
	diags, err := analysis.Run(analysis.SimGoroutine, pkg)
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 1 {
		t.Fatalf("diagnostics = %d, want exactly 1 (the sim import; the go statement and sync.WaitGroup are sanctioned): %v",
			len(diags), diags)
	}
	if !strings.Contains(diags[0].Message, "engine-agnostic") {
		t.Errorf("diagnostic = %q, want mention of engine-agnostic", diags[0].Message)
	}
}

func TestSimMapIter(t *testing.T) {
	analysistest.Run(t, analysis.SimMapIter, testdata("simmapiter"))
}

func TestCreditMut(t *testing.T) {
	analysistest.Run(t, analysis.CreditMut, testdata("creditmut"))
}

// TestAllowFiltering drives the suppression pipeline end to end over the
// allow fixture: findings covered by a matching fclint:allow vanish,
// uncovered or mismatched ones survive, and malformed suppressions are
// diagnostics in their own right.
func TestAllowFiltering(t *testing.T) {
	pkg := analysistest.Load(t, testdata("allow"))
	diags, err := analysis.Run(analysis.SimWallclock, pkg)
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 4 {
		t.Fatalf("raw diagnostics = %d, want 4 (three Sleeps and one Now): %v", len(diags), diags)
	}

	allows, bad := analysis.CollectAllows(pkg.Fset, pkg.Files, analysis.KnownNames())
	if len(allows) != 3 {
		t.Errorf("well-formed allows = %d, want 3", len(allows))
	}
	for _, a := range allows {
		if a.Reason == "" {
			t.Errorf("allow at %s:%d has empty reason", a.File, a.Line)
		}
	}
	wantBad := []string{
		"needs an analyzer name and a reason",
		"unknown analyzer nosuchanalyzer",
		"needs a reason",
	}
	if len(bad) != len(wantBad) {
		t.Fatalf("malformed-suppression diagnostics = %d, want %d: %v", len(bad), len(wantBad), bad)
	}
	for i, d := range bad {
		if !strings.Contains(d.Message, wantBad[i]) {
			t.Errorf("bad[%d] = %q, want mention of %q", i, d.Message, wantBad[i])
		}
		if d.Analyzer != "fclint" {
			t.Errorf("bad[%d].Analyzer = %q, want fclint", i, d.Analyzer)
		}
	}

	kept, _ := analysis.FilterAllowedStale(pkg.Fset, diags, allows)
	if len(kept) != 2 {
		t.Fatalf("after filtering %d diagnostics remain, want 2 (unsuppressed Now and the wrong-analyzer Sleep): %v",
			len(kept), kept)
	}
	var msgs []string
	for _, d := range kept {
		msgs = append(msgs, d.Message)
	}
	joined := strings.Join(msgs, "\n")
	if !strings.Contains(joined, "time.Now") || !strings.Contains(joined, "time.Sleep") {
		t.Errorf("surviving findings = %v, want one time.Now and one time.Sleep", msgs)
	}
}

func TestRegistry(t *testing.T) {
	known := analysis.KnownNames()
	for _, name := range []string{"simwallclock", "simgoroutine", "simmapiter", "creditmut", "simhotpath", "hotalloc"} {
		if !known[name] {
			t.Errorf("analyzer %s missing from registry", name)
		}
	}
	if len(analysis.All) != 6 {
		t.Errorf("len(All) = %d, want 6", len(analysis.All))
	}

	for _, path := range []string{
		"ibflow/internal/sim",
		"ibflow/internal/sim_test", // external test package audits with its subject
		"ibflow/internal/nas",
		"ibflow/internal/metrics", // exporters must be deterministic too
		"ibflow/internal/runner",  // audited under the inverted pool rule
	} {
		if !analysis.Audited(path) {
			t.Errorf("Audited(%q) = false, want true", path)
		}
	}
	for _, path := range []string{
		"ibflow/internal/analysis",
		"ibflow/internal/simulator", // prefix of an audited path must not match
		"ibflow/cmd/fclint",
	} {
		if analysis.Audited(path) {
			t.Errorf("Audited(%q) = true, want false", path)
		}
	}
}

package analysis_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ibflow/internal/analysis"
)

// writeModule lays out a miniature three-package module on disk:
//
//	ibflow          (root, imports leaf)
//	ibflow/mid      (imports leaf, has in-package and external tests)
//	ibflow/leaf     (no module-internal imports)
//
// The module is named ibflow so Audited()-style path logic sees familiar
// prefixes; it never collides with the real module because the load runs
// in its own directory.
func writeModule(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	write := func(rel, src string) {
		t.Helper()
		path := filepath.Join(dir, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module ibflow\n\ngo 1.22\n")
	write("root.go", `package root

import "ibflow/leaf"

func Root() int { return leaf.N }
`)
	write("mid/mid.go", `package mid

import "ibflow/leaf"

func Mid() int { return leaf.N + 1 }
`)
	write("mid/mid_test.go", `package mid

import "testing"

func TestMid(t *testing.T) {
	if Mid() != 2 {
		t.Fatal("mid")
	}
}
`)
	write("mid/mid_x_test.go", `package mid_test

import (
	"testing"

	"ibflow/mid"
)

func TestMidX(t *testing.T) {
	if mid.Mid() != 2 {
		t.Fatal("mid")
	}
}
`)
	write("leaf/leaf.go", `package leaf

const N = 1
`)
	return dir
}

func TestLoadModule(t *testing.T) {
	dir := writeModule(t)
	mod, err := analysis.LoadModule(dir, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}

	if want, _ := filepath.Abs(dir); mod.Dir != want {
		t.Errorf("mod.Dir = %q, want %q", mod.Dir, want)
	}

	// DepOrder: every module package, pure view, deps before dependents.
	pos := map[string]int{}
	for i, lp := range mod.DepOrder {
		pos[lp.Path] = i
		for _, f := range lp.FileNames {
			if strings.HasSuffix(f, "_test.go") {
				t.Errorf("pure view of %s contains test file %s", lp.Path, f)
			}
		}
		if len(lp.TypeErrs) != 0 {
			t.Errorf("%s: type errors %v", lp.Path, lp.TypeErrs)
		}
	}
	for _, path := range []string{"ibflow", "ibflow/mid", "ibflow/leaf"} {
		if _, ok := pos[path]; !ok {
			t.Fatalf("DepOrder missing %s (have %v)", path, pos)
		}
	}
	if pos["ibflow/leaf"] > pos["ibflow"] || pos["ibflow/leaf"] > pos["ibflow/mid"] {
		t.Errorf("leaf must precede its dependents in DepOrder: %v", pos)
	}

	// Matched: augmented views, sorted by path, external test package as
	// its own "_test" entry.
	var paths []string
	byPath := map[string]*analysis.LoadedPackage{}
	for _, lp := range mod.Matched {
		paths = append(paths, lp.Path)
		byPath[lp.Path] = lp
	}
	if !sortedStrings(paths) {
		t.Errorf("Matched not sorted by path: %v", paths)
	}
	want := []string{"ibflow", "ibflow/leaf", "ibflow/mid", "ibflow/mid_test"}
	if strings.Join(paths, ",") != strings.Join(want, ",") {
		t.Fatalf("Matched paths = %v, want %v", paths, want)
	}
	var midFiles []string
	for _, f := range byPath["ibflow/mid"].FileNames {
		midFiles = append(midFiles, filepath.Base(f))
	}
	if strings.Join(midFiles, ",") != "mid.go,mid_test.go" {
		t.Errorf("augmented mid files = %v, want [mid.go mid_test.go]", midFiles)
	}
	xt := byPath["ibflow/mid_test"]
	if len(xt.FileNames) != 1 || filepath.Base(xt.FileNames[0]) != "mid_x_test.go" {
		t.Errorf("external test package files = %v, want [mid_x_test.go]", xt.FileNames)
	}
	if xt.Types == nil || xt.Types.Name() != "mid_test" {
		t.Errorf("external test package type-checked as %v, want mid_test", xt.Types)
	}

	// All views share the module FileSet so positions compare across
	// packages (the facts layer and sorted diagnostics rely on this).
	for _, lp := range mod.DepOrder {
		if lp.Fset != mod.Fset {
			t.Errorf("%s pure view has its own FileSet", lp.Path)
		}
	}
	for _, lp := range mod.Matched {
		if lp.Fset != mod.Fset {
			t.Errorf("%s augmented view has its own FileSet", lp.Path)
		}
	}
}

// TestLoadModulePatternSubset: patterns narrow Matched but DepOrder still
// spans the dependency closure, so facts for unmatched dependencies exist.
func TestLoadModulePatternSubset(t *testing.T) {
	dir := writeModule(t)
	mod, err := analysis.LoadModule(dir, []string{"./mid/..."})
	if err != nil {
		t.Fatal(err)
	}
	var matched []string
	for _, lp := range mod.Matched {
		matched = append(matched, lp.Path)
	}
	if strings.Join(matched, ",") != "ibflow/mid,ibflow/mid_test" {
		t.Errorf("Matched = %v, want only mid and its external tests", matched)
	}
	dep := map[string]bool{}
	for _, lp := range mod.DepOrder {
		dep[lp.Path] = true
	}
	if !dep["ibflow/leaf"] {
		t.Error("DepOrder must include the unmatched dependency ibflow/leaf")
	}
	if dep["ibflow"] {
		t.Error("DepOrder must not include the root package: it is neither matched nor a dependency of mid")
	}
}

func TestLoadModuleErrors(t *testing.T) {
	if _, err := analysis.LoadModule(t.TempDir(), []string{"./..."}); err == nil {
		t.Error("loading an empty directory (no go.mod) should fail")
	}
	dir := writeModule(t)
	if _, err := analysis.LoadModule(dir, []string{"./nosuchpkg"}); err == nil {
		t.Error("loading a nonexistent pattern should fail")
	}

	// A parse error in a dependency surfaces as a load error, not a panic.
	bad := filepath.Join(dir, "leaf", "broken.go")
	if err := os.WriteFile(bad, []byte("package leaf\n\nfunc {\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := analysis.LoadModule(dir, []string{"./..."}); err == nil {
		t.Error("loading a module with a syntax error should fail")
	}
}

// TestLoad: a one-package pattern matches exactly that package.
func TestLoad(t *testing.T) {
	dir := writeModule(t)
	mod, err := analysis.LoadModule(dir, []string{"./leaf"})
	if err != nil {
		t.Fatal(err)
	}
	if pkgs := mod.Matched; len(pkgs) != 1 || pkgs[0].Path != "ibflow/leaf" {
		t.Fatalf("LoadModule(./leaf).Matched = %v, want just ibflow/leaf", pkgs)
	}
}

func sortedStrings(s []string) bool {
	for i := 1; i < len(s); i++ {
		if s[i-1] > s[i] {
			return false
		}
	}
	return true
}

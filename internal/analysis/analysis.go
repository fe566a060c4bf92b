// Package analysis is a self-contained static-analysis framework plus the
// fclint analyzers that enforce this repository's determinism and
// credit-accounting contracts (see DESIGN.md, "Determinism contract &
// static enforcement").
//
// The API deliberately mirrors golang.org/x/tools/go/analysis — Analyzer,
// Pass, Diagnostic — but is built only on the standard library (go/ast,
// go/types, go/importer) so the linter needs no external dependencies.
// Packages are loaded by shelling out to `go list` and type-checking the
// module from source in dependency order (see load.go).
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer is one static check. It mirrors x/tools' analysis.Analyzer.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //fclint:allow suppression comments.
	Name string
	// Doc is a one-paragraph description of what the analyzer enforces.
	Doc string
	// Run executes the check over one package and reports findings
	// through pass.Report.
	Run func(pass *Pass) error
}

// Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Facts holds cross-package function summaries computed bottom-up
	// over the module (see facts.go). It may be nil, in which case
	// fact-consuming analyzers see only the current package.
	Facts *FactSet

	diags []Diagnostic
}

// Diagnostic is one finding at a source position.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Pos:      pos,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Run executes analyzer a over the package pkg and returns its findings.
func Run(a *Analyzer, pkg *LoadedPackage) ([]Diagnostic, error) {
	return RunWithFacts(a, pkg, nil)
}

// RunWithFacts executes analyzer a over pkg with cross-package facts
// available through pass.Facts (fs may be nil).
func RunWithFacts(a *Analyzer, pkg *LoadedPackage, fs *FactSet) ([]Diagnostic, error) {
	pass := &Pass{
		Analyzer:  a,
		Fset:      pkg.Fset,
		Files:     pkg.Files,
		Pkg:       pkg.Types,
		TypesInfo: pkg.Info,
		Facts:     fs,
	}
	if err := a.Run(pass); err != nil {
		return nil, fmt.Errorf("%s: %w", a.Name, err)
	}
	return pass.diags, nil
}

// pkgNameOf returns the imported package path if e is a reference to a
// package name (e.g. the `time` in `time.Now`), or "".
func pkgNameOf(info *types.Info, e ast.Expr) string {
	id, ok := e.(*ast.Ident)
	if !ok {
		return ""
	}
	if pn, ok := info.Uses[id].(*types.PkgName); ok {
		return pn.Imported().Path()
	}
	return ""
}

// recvNamed returns the named type of a method receiver type expression,
// unwrapping a pointer, or nil.
func recvNamed(info *types.Info, e ast.Expr) *types.Named {
	t := info.TypeOf(e)
	if t == nil {
		return nil
	}
	return namedOf(t)
}

// namedOf returns the named type t or *t denotes, or nil.
func namedOf(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

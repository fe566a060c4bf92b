package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// LoadedPackage is one type-checked package ready for analysis. For
// packages with in-package test files the Files/Types/Info describe the
// augmented package (library sources plus _test.go files), the same view
// `go vet` analyzes.
type LoadedPackage struct {
	Path      string   // import path
	Dir       string   // package directory
	FileNames []string // file names matching Files, absolute
	Fset      *token.FileSet
	Files     []*ast.File
	Types     *types.Package
	Info      *types.Info
	TypeErrs  []error // type-check problems (analysis still ran best-effort)
}

// listPackage is the subset of `go list -json` output the loader needs.
type listPackage struct {
	Dir          string
	ImportPath   string
	Name         string
	Standard     bool
	GoFiles      []string
	TestGoFiles  []string
	XTestGoFiles []string
	Imports      []string
	TestImports  []string
	XTestImports []string
}

// goList runs `go list -deps -json <patterns>` in dir and decodes the
// package stream. Standard-library packages are dropped: the type-checker
// imports those itself, from source.
func goList(dir string, patterns []string) (map[string]*listPackage, []string, error) {
	fields := "Dir,ImportPath,Name,Standard,GoFiles,TestGoFiles,XTestGoFiles,Imports,TestImports,XTestImports"
	args := append([]string{"list", "-deps", "-json=" + fields}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var out, errb bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errb
	if err := cmd.Run(); err != nil {
		return nil, nil, fmt.Errorf("go list %v: %v\n%s", patterns, err, errb.String())
	}
	pkgs := map[string]*listPackage{}
	var order []string // dependency order as emitted by go list
	dec := json.NewDecoder(&out)
	for {
		var p listPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, nil, fmt.Errorf("go list: decoding output: %v", err)
		}
		if p.Standard {
			continue
		}
		pkgs[p.ImportPath] = &p
		order = append(order, p.ImportPath)
	}
	return pkgs, order, nil
}

// chainImporter resolves module-internal imports from the loader's cache
// and everything else (the standard library) through the source importer.
type chainImporter struct {
	cache map[string]*types.Package
	src   types.ImporterFrom
}

func (c *chainImporter) Import(path string) (*types.Package, error) {
	if p, ok := c.cache[path]; ok {
		return p, nil
	}
	return c.src.ImportFrom(path, "", 0)
}

// Module is one full module load: every module-internal package
// type-checked from source, in dependency order, plus the augmented
// (test-inclusive) views of the packages the caller's patterns matched.
type Module struct {
	Dir  string // module root directory the load ran in
	Fset *token.FileSet
	// DepOrder holds the pure (library-files-only) view of every
	// module-internal package, dependencies strictly before dependents —
	// the order cross-package facts must be computed in (see facts.go).
	DepOrder []*LoadedPackage
	// Matched holds the augmented view of each matched package (library
	// plus in-package test files; external test packages as separate
	// "_test"-suffixed entries), sorted by import path.
	Matched []*LoadedPackage
}

// LoadModule type-checks the packages matching patterns (plus their
// module-internal dependencies) rooted at the module in dir. It returns
// one augmented LoadedPackage per matched package (in-package test files
// folded in, an external test package as a separate "_test"-suffixed
// entry) and the dependency-ordered pure views the facts layer consumes.
func LoadModule(dir string, patterns []string) (*Module, error) {
	pkgs, order, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}
	// `go list -deps` omits packages reachable only through test imports;
	// chase module-internal test imports to closure.
	for {
		var missing []string
		for _, p := range pkgs {
			for _, imp := range append(append([]string{}, p.TestImports...), p.XTestImports...) {
				if _, ok := pkgs[imp]; !ok && strings.HasPrefix(imp, modulePrefix(order)) {
					missing = append(missing, imp)
				}
			}
		}
		if len(missing) == 0 {
			break
		}
		more, moreOrder, err := goList(dir, missing)
		if err != nil {
			return nil, err
		}
		for _, path := range moreOrder {
			if _, ok := pkgs[path]; !ok {
				pkgs[path] = more[path]
				order = append(order, path)
			}
		}
	}

	// The set of packages the caller asked to analyze: everything the
	// patterns matched directly. -deps appends dependencies before
	// dependents, so `order` is already topological; the matched set is
	// recovered by re-listing without -deps.
	matched, err := goListMatched(dir, patterns)
	if err != nil {
		return nil, err
	}

	fset := token.NewFileSet()
	ld := &loader{
		fset: fset,
		pkgs: pkgs,
		imp: &chainImporter{
			cache: map[string]*types.Package{},
			src:   importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		},
	}

	// Pass 1: type-check every module package (library files only), in
	// dependency order, caching results for importers and keeping the
	// checked view for bottom-up fact computation.
	var depOrder []*LoadedPackage
	for _, path := range order {
		lp, err := ld.checkPure(path)
		if err != nil {
			return nil, err
		}
		depOrder = append(depOrder, lp)
	}

	// Pass 2: build the augmented (test-inclusive) view of each matched
	// package. Augmented packages are never imported by anything, so
	// order no longer matters.
	var out []*LoadedPackage
	for _, path := range order {
		if !matched[path] {
			continue
		}
		lp, xlp, err := ld.checkAugmented(path)
		if err != nil {
			return nil, err
		}
		out = append(out, lp)
		if xlp != nil {
			out = append(out, xlp)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	absDir, err := filepath.Abs(dir)
	if err != nil {
		absDir = dir
	}
	return &Module{Dir: absDir, Fset: fset, DepOrder: depOrder, Matched: out}, nil
}

// goListMatched returns the set of import paths the patterns match
// directly (no -deps).
func goListMatched(dir string, patterns []string) (map[string]bool, error) {
	args := append([]string{"list", "-json=ImportPath"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var out, errb bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errb
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list %v: %v\n%s", patterns, err, errb.String())
	}
	matched := map[string]bool{}
	dec := json.NewDecoder(&out)
	for {
		var p struct{ ImportPath string }
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, err
		}
		matched[p.ImportPath] = true
	}
	return matched, nil
}

// modulePrefix guesses the module path prefix from the first listed
// package path ("ibflow/internal/sim" -> "ibflow").
func modulePrefix(order []string) string {
	if len(order) == 0 {
		return "\x00" // matches nothing
	}
	first := order[0]
	if i := strings.Index(first, "/"); i >= 0 {
		return first[:i]
	}
	return first
}

type loader struct {
	fset *token.FileSet
	pkgs map[string]*listPackage
	imp  *chainImporter
}

func (ld *loader) parse(dir string, names []string) ([]*ast.File, []string, error) {
	var files []*ast.File
	var paths []string
	for _, name := range names {
		path := filepath.Join(dir, name)
		f, err := parser.ParseFile(ld.fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, nil, err
		}
		files = append(files, f)
		paths = append(paths, path)
	}
	return files, paths, nil
}

func newInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
}

func (ld *loader) check(path string, files []*ast.File) (*types.Package, *types.Info, []error) {
	var terrs []error
	conf := types.Config{
		Importer: ld.imp,
		Error:    func(err error) { terrs = append(terrs, err) },
	}
	info := newInfo()
	tpkg, _ := conf.Check(path, ld.fset, files, info)
	return tpkg, info, terrs
}

// checkPure type-checks the library view of path and caches it so that
// dependent packages can import it. The checked view is returned so the
// facts layer can summarize every module package, matched or not.
func (ld *loader) checkPure(path string) (*LoadedPackage, error) {
	lp := ld.pkgs[path]
	files, fileNames, err := ld.parse(lp.Dir, lp.GoFiles)
	if err != nil {
		return nil, err
	}
	tpkg, info, terrs := ld.check(path, files)
	if tpkg == nil {
		return nil, fmt.Errorf("type-checking %s failed: %v", path, terrs)
	}
	ld.imp.cache[path] = tpkg
	return &LoadedPackage{
		Path: path, Dir: lp.Dir, FileNames: fileNames,
		Fset: ld.fset, Files: files, Types: tpkg, Info: info, TypeErrs: terrs,
	}, nil
}

// checkAugmented type-checks path with its in-package test files folded in
// and, if present, its external test package.
func (ld *loader) checkAugmented(path string) (*LoadedPackage, *LoadedPackage, error) {
	lp := ld.pkgs[path]
	names := append(append([]string{}, lp.GoFiles...), lp.TestGoFiles...)
	files, fileNames, err := ld.parse(lp.Dir, names)
	if err != nil {
		return nil, nil, err
	}
	tpkg, info, terrs := ld.check(path, files)
	out := &LoadedPackage{
		Path: path, Dir: lp.Dir, FileNames: fileNames,
		Fset: ld.fset, Files: files, Types: tpkg, Info: info, TypeErrs: terrs,
	}
	if len(lp.XTestGoFiles) == 0 {
		return out, nil, nil
	}
	xfiles, xnames, err := ld.parse(lp.Dir, lp.XTestGoFiles)
	if err != nil {
		return nil, nil, err
	}
	xpkg, xinfo, xerrs := ld.check(path+"_test", xfiles)
	xout := &LoadedPackage{
		Path: path + "_test", Dir: lp.Dir, FileNames: xnames,
		Fset: ld.fset, Files: xfiles, Types: xpkg, Info: xinfo, TypeErrs: xerrs,
	}
	return out, xout, nil
}

package analysis_test

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"ibflow/internal/analysis"
)

// TestExportsHaveCallers keeps the library what its callers call: every
// exported function or method declared in a non-test file under
// internal/ must be used somewhere other than its own package's
// _test.go files. A use in product code, in another package's tests or
// in the benchmark harness (benchmark/*.go, a module of its own) counts.
// So does being a method that implements an interface method, or a
// method of a type the root ibflow package aliases: those are reached
// through the interface or the public surface. An export no one else
// reaches is deleted, and its tests read the unexported field or call
// what product code calls.
func TestExportsHaveCallers(t *testing.T) {
	mod, err := analysis.LoadModule("../..", []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	loaded := importedPackages(mod)

	// The uses: every reference to a module function, by key, noting
	// whether one lies outside its declaring package's tests. A pure view
	// holds only non-test files; an augmented view adds the test files.
	external := map[string]bool{}
	note := func(pkg *analysis.LoadedPackage) {
		home := strings.TrimSuffix(pkg.Path, "_test")
		for id, obj := range pkg.Info.Uses {
			fn, ok := obj.(*types.Func)
			if !ok || fn.Pkg() == nil {
				continue
			}
			fn = fn.Origin()
			inTest := strings.HasSuffix(pkg.Fset.Position(id.Pos()).Filename, "_test.go")
			if !inTest || fn.Pkg().Path() != home {
				external[fn.FullName()] = true
			}
		}
	}
	for _, pkg := range mod.DepOrder {
		note(pkg)
	}
	for _, pkg := range mod.Matched {
		note(pkg)
	}
	note(checkBenchmark(t, mod, loaded))

	ifaces := interfaces(loaded)
	aliased := map[*types.TypeName]bool{}
	for _, pkg := range mod.DepOrder {
		if pkg.Path != "ibflow" {
			continue
		}
		for _, name := range pkg.Types.Scope().Names() {
			if tn, ok := pkg.Types.Scope().Lookup(name).(*types.TypeName); ok && tn.IsAlias() {
				if n := namedType(types.Unalias(tn.Type())); n != nil {
					aliased[n.Obj()] = true
				}
			}
		}
	}

	var orphans []string
	for _, pkg := range mod.DepOrder {
		if !strings.HasPrefix(pkg.Path, "ibflow/internal/") {
			continue
		}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || !fd.Name.IsExported() {
					continue
				}
				fn, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				if fn == nil || external[fn.FullName()] {
					continue
				}
				if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
					n := namedType(recv.Type())
					if n == nil || aliased[n.Obj()] || implements(n, fn.Name(), ifaces) {
						continue
					}
				}
				orphans = append(orphans, analysis.ShortKey(fn.FullName()))
			}
		}
	}
	sort.Strings(orphans)
	for _, o := range orphans {
		t.Errorf("%s is exported but only its own package's tests use it: delete it, or unexport it", o)
	}
}

// importedPackages returns every package the module load type-checked,
// the standard library's among them, by path.
func importedPackages(mod *analysis.Module) map[string]*types.Package {
	out := map[string]*types.Package{}
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if out[p.Path()] != nil {
			return
		}
		out[p.Path()] = p
		for _, imp := range p.Imports() {
			walk(imp)
		}
	}
	for _, pkg := range mod.DepOrder {
		walk(pkg.Types)
	}
	for _, pkg := range mod.Matched {
		for _, imp := range pkg.Types.Imports() {
			walk(imp)
		}
	}
	return out
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// checkBenchmark type-checks the benchmark harness, a module of its own
// that builds against this one, on the packages the module load already
// checked, so that its uses resolve to the same functions.
func checkBenchmark(t *testing.T, mod *analysis.Module, loaded map[string]*types.Package) *analysis.LoadedPackage {
	t.Helper()
	dir := filepath.Join(mod.Dir, "benchmark")
	names, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil || len(names) == 0 {
		t.Fatalf("no Go files in %s (%v)", dir, err)
	}
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(mod.Fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	src := importer.ForCompiler(mod.Fset, "source", nil)
	conf := types.Config{
		Importer: importerFunc(func(path string) (*types.Package, error) {
			if p := loaded[path]; p != nil {
				return p, nil
			}
			return src.Import(path)
		}),
	}
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
	pkg, err := conf.Check("ibflow/benchmark", mod.Fset, files, info)
	if err != nil {
		t.Fatalf("type-checking the benchmark harness: %v", err)
	}
	return &analysis.LoadedPackage{Path: pkg.Path(), Fset: mod.Fset, Files: files, Types: pkg, Info: info}
}

// interfaces returns the interface types a method may be reached
// through: every named interface the module declares, plus error,
// fmt.Stringer and go/types' Importer.
func interfaces(loaded map[string]*types.Package) []*types.Interface {
	out := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	for path, p := range loaded {
		scope := p.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			std := path == "fmt" && name == "Stringer" || path == "go/types" && name == "Importer"
			if iface, ok := tn.Type().Underlying().(*types.Interface); ok && (std || strings.HasPrefix(path, "ibflow/")) {
				out = append(out, iface)
			}
		}
	}
	return out
}

// implements reports whether n or *n implements an interface in ifaces
// that has a method called name.
func implements(n *types.Named, name string, ifaces []*types.Interface) bool {
	for _, iface := range ifaces {
		has := false
		for i := 0; i < iface.NumMethods(); i++ {
			has = has || iface.Method(i).Name() == name
		}
		if has && (types.Implements(n, iface) || types.Implements(types.NewPointer(n), iface)) {
			return true
		}
	}
	return false
}

// namedType returns the named type t or *t denotes, at its origin, or
// nil.
func namedType(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Origin()
	}
	return nil
}

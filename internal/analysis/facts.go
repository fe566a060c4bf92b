package analysis

// Cross-package function facts for the hot-path contract analyzers
// (simhotpath, hotalloc).
//
// A FuncFact is a per-function summary — whether it parks, what it
// calls, whether it runs in event context — computed bottom-up: within a
// package by fixpoint over the static call graph, across packages by
// consulting the facts of already-summarized dependencies. The loader's
// dependency order (Module.DepOrder) guarantees a callee's package is
// summarized before its callers' packages, and Go's import acyclicity
// guarantees the cross-package lookup never recurses. The design mirrors
// golang.org/x/tools/go/analysis facts, but stdlib-only like the rest of
// this framework.
//
// Facts deliberately under-approximate: only static calls (named
// functions and methods on concrete receivers) produce call edges.
// Calls through interfaces, func-typed fields and func-typed variables
// are invisible, as are goroutine bodies (a `go` statement's parks
// belong to the spawned goroutine, not the spawner). The analyzers built
// on top therefore miss dynamic dispatch but never flag it falsely.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path"
	"sort"
	"strings"
)

// RootKind classifies why a function executes in event context.
type RootKind int

const (
	// RootNone marks ordinary functions.
	RootNone RootKind = iota
	// RootHandler marks OnEvent(uint64) methods: sim.Handler
	// implementations dispatched by the engine's event loop.
	RootHandler
	// RootScheduled marks closures and method values handed to
	// Engine.At/After/AtCancel or sim.NewTimer: they fire as events.
	RootScheduled
)

// FuncFact is one function's (or func literal's) summary.
type FuncFact struct {
	Key string // types.Func.FullName, or "closure@file:line:col"
	Pkg string // import path of the defining package
	Pos token.Pos

	Root RootKind

	// Parks is the one propagated fact: true when the function parks the
	// calling goroutine directly or through any static callee.
	Parks bool

	// Park provenance, for diagnostics: ParkWhy names a direct parking
	// operation ("sends on a channel"); otherwise ParkVia is the key of
	// the first callee the park was inherited from.
	ParkWhy string
	ParkVia string

	// Calls lists static module-level callees (keys), in source order,
	// deduplicated.
	Calls []string
}

// ScheduleSite is one schedule call site the hotalloc analyzer judges.
type ScheduleSite struct {
	Pos    token.Pos
	Method string // engine method called: At, After, AtCall, AfterCall
	Owner  string // key of the function whose body contains the site
	File   string
}

// PkgFacts is the summary of one package: per-function facts plus the
// schedule sites found along the way.
type PkgFacts struct {
	Funcs map[string]*FuncFact
	// AtSites are closure literals passed to Engine.At/After — a
	// per-event allocation if the enclosing function is hot.
	AtSites []ScheduleSite
	// FreshSites are composite-literal handlers built at an
	// AtCall/AfterCall call site — a per-event allocation anywhere.
	FreshSites []ScheduleSite
	// SliceSites are make([]byte, ...) expressions — a per-event buffer
	// allocation if the enclosing function is hot; the pooled-buffer
	// discipline (mem.BufPool) exists to avoid
	// exactly these on the steady-state message path.
	SliceSites []ScheduleSite
	// StructSites are &T{...} and new(T) expressions of a named struct
	// type (Method holds the expression as written, "&T{...}" or
	// "new(T)") — a per-event object if the enclosing function is hot;
	// per-message state belongs in a pool its owner recycles
	// (store.Pool) or inside the long-lived owner. A handler built at an
	// AtCall/AfterCall call site is a FreshSite, not repeated here.
	StructSites []ScheduleSite

	// pendingRoots records schedule-time roots (method values passed to
	// Engine.At and friends) whose target may be declared elsewhere.
	pendingRoots map[string]RootKind
}

// FactSet accumulates FuncFacts across packages and, once finalized,
// answers hot-path reachability queries.
type FactSet struct {
	funcs map[string]*FuncFact
	reach map[string]string // function key -> key of a root that reaches it
}

// NewFactSet returns an empty fact set.
func NewFactSet() *FactSet {
	return &FactSet{funcs: map[string]*FuncFact{}}
}

// Fact returns the recorded fact for key, or nil.
func (fs *FactSet) Fact(key string) *FuncFact {
	if fs == nil {
		return nil
	}
	return fs.funcs[key]
}

// AddPackage summarizes pkg's files and merges the facts. rooted governs
// whether the package's event-context roots seed reachability: the
// driver passes Audited(pkg.Path) so an unaudited example scheduling
// library code cannot drag that code under the audited contract.
// Packages must be added in dependency order (Module.DepOrder).
func (fs *FactSet) AddPackage(pkg *LoadedPackage, rooted bool) *PkgFacts {
	pf := SummarizePackage(pkg.Fset, pkg.Files, pkg.Types, pkg.Info, fs.Fact)
	for k, f := range pf.Funcs {
		if !rooted {
			c := *f
			c.Root = RootNone
			fs.funcs[k] = &c
			continue
		}
		fs.funcs[k] = f
	}
	if rooted {
		for k, kind := range pf.pendingRoots {
			if f := fs.funcs[k]; f != nil && f.Root == RootNone {
				f.Root = kind
			}
		}
	}
	return pf
}

// Finalize computes the hot-reachable set: every function reachable over
// static call edges from any event-context root. Roots are processed in
// sorted key order and a function keeps the first root that reached it,
// so the result is deterministic.
func (fs *FactSet) Finalize() {
	fs.reach = map[string]string{}
	keys := make([]string, 0, len(fs.funcs))
	for k := range fs.funcs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if fs.funcs[k].Root == RootNone {
			continue
		}
		queue := []string{k}
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			cf := fs.funcs[cur]
			if cf == nil {
				continue
			}
			for _, callee := range cf.Calls {
				if _, seen := fs.reach[callee]; seen {
					continue
				}
				if fs.funcs[callee] == nil {
					continue
				}
				fs.reach[callee] = k
				queue = append(queue, callee)
			}
		}
	}
}

// HotVia reports whether the function at key executes in event context —
// it is a root itself or is reachable from one — and names the root.
func (fs *FactSet) HotVia(key string) (string, bool) {
	if fs == nil {
		return "", false
	}
	if f := fs.funcs[key]; f != nil && f.Root != RootNone {
		return key, true
	}
	if fs.reach == nil {
		return "", false
	}
	root, ok := fs.reach[key]
	return root, ok
}

// BuildFacts summarizes every package of mod bottom-up and finalizes
// reachability. Only audited packages contribute event-context roots.
func BuildFacts(mod *Module) *FactSet {
	fs := NewFactSet()
	for _, pkg := range mod.DepOrder {
		fs.AddPackage(pkg, Audited(pkg.Path))
	}
	fs.Finalize()
	return fs
}

// SummarizePackage computes one package's facts from its syntax and type
// information. lookup resolves facts of already-summarized packages (use
// (*FactSet).Fact, or nil for a standalone package) and is also used to
// propagate parks across package boundaries.
func SummarizePackage(fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, lookup func(string) *FuncFact) *PkgFacts {
	if lookup == nil {
		lookup = func(string) *FuncFact { return nil }
	}
	pf := &PkgFacts{Funcs: map[string]*FuncFact{}, pendingRoots: map[string]RootKind{}}
	s := &summarizer{fset: fset, info: info, pkg: pkg, pf: pf, fresh: map[token.Pos]bool{}}
	for _, f := range files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			s.declFact(fd)
		}
	}
	for k, kind := range pf.pendingRoots {
		if f := pf.Funcs[k]; f != nil && f.Root == RootNone {
			f.Root = kind
		}
	}
	propagate(pf.Funcs, lookup)
	return pf
}

// propagate closes Parks over the package-local call graph,
// consulting lookup for callees summarized elsewhere. Iteration visits
// functions in sorted key order and callees in source order, and a fact
// set once is never rewritten, so provenance is deterministic.
func propagate(funcs map[string]*FuncFact, lookup func(string) *FuncFact) {
	keys := make([]string, 0, len(funcs))
	for k := range funcs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	resolve := func(key string) *FuncFact {
		if f := funcs[key]; f != nil {
			return f
		}
		return lookup(key)
	}
	for changed := true; changed; {
		changed = false
		for _, k := range keys {
			f := funcs[k]
			for _, callee := range f.Calls {
				g := resolve(callee)
				if g == nil {
					continue
				}
				if g.Parks && !f.Parks {
					f.Parks, f.ParkVia = true, callee
					changed = true
				}
			}
		}
	}
}

// ParkChain renders why f parks, following inherited-park provenance to
// a direct parking operation: "calls a, which calls b, which sends on a
// channel". Messages carry function names only — never positions — so
// they stay stable under unrelated edits (the baseline keys on them).
func ParkChain(f *FuncFact, lookup func(string) *FuncFact) string {
	cur := f
	var chain []string
	for hops := 0; hops < 64 && cur.ParkWhy == "" && cur.ParkVia != ""; hops++ {
		chain = append(chain, ShortKey(cur.ParkVia))
		next := lookup(cur.ParkVia)
		if next == nil {
			break
		}
		cur = next
	}
	why := cur.ParkWhy
	if why == "" {
		why = "parks"
	}
	if len(chain) == 0 {
		return why
	}
	return "calls " + strings.Join(chain, ", which calls ") + ", which " + why
}

// ShortKey renders a function key for diagnostics: package directories
// are dropped ("(*ibflow/internal/ib.QP).pump" -> "(*ib.QP).pump") and
// closure keys lose their position (messages must stay position-free).
func ShortKey(key string) string {
	if strings.HasPrefix(key, "closure@") {
		return "a closure"
	}
	i := strings.LastIndex(key, "/")
	if i < 0 {
		return key
	}
	p := 0
	if strings.HasPrefix(key, "(*") {
		p = 2
	} else if strings.HasPrefix(key, "(") {
		p = 1
	}
	return key[:p] + key[i+1:]
}

// summarizer walks one package's function bodies.
type summarizer struct {
	fset *token.FileSet
	info *types.Info
	pkg  *types.Package
	pf   *PkgFacts
	// fresh holds the positions already recorded as FreshSites.
	fresh map[token.Pos]bool
}

// declFact summarizes one function declaration.
func (s *summarizer) declFact(fd *ast.FuncDecl) {
	obj, _ := s.info.Defs[fd.Name].(*types.Func)
	if obj == nil {
		return
	}
	f := s.fact(obj.FullName(), fd.Pos())
	if isOnEventMethod(fd, obj) {
		f.Root = RootHandler
	}
	s.walkBody(f, fd.Body)
}

// litFact summarizes a func literal (idempotently) under its synthetic
// position key and returns its fact.
func (s *summarizer) litFact(lit *ast.FuncLit) *FuncFact {
	key := s.litKey(lit)
	if f, ok := s.pf.Funcs[key]; ok {
		return f
	}
	f := s.fact(key, lit.Pos())
	s.walkBody(f, lit.Body)
	return f
}

func (s *summarizer) litKey(lit *ast.FuncLit) string {
	p := s.fset.Position(lit.Pos())
	return fmt.Sprintf("closure@%s:%d:%d", p.Filename, p.Line, p.Column)
}

func (s *summarizer) fact(key string, pos token.Pos) *FuncFact {
	f := &FuncFact{Key: key, Pkg: s.pkg.Path(), Pos: pos}
	s.pf.Funcs[key] = f
	return f
}

// park records a direct parking operation, keeping the first one found.
func park(f *FuncFact, why string) {
	if !f.Parks {
		f.Parks, f.ParkWhy = true, why
	}
}

// walkBody scans one function body, attributing facts to f. Nested func
// literals are summarized separately (a literal's parks are its own; the
// encloser inherits them only through an immediate call), and goroutine
// bodies are skipped entirely — their parks happen off the event loop.
func (s *summarizer) walkBody(f *FuncFact, body ast.Node) {
	seen := map[string]bool{}
	edge := func(key string) {
		if !seen[key] {
			seen[key] = true
			f.Calls = append(f.Calls, key)
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			s.litFact(n)
			return false
		case *ast.GoStmt:
			if lit, ok := n.Call.Fun.(*ast.FuncLit); ok {
				s.litFact(lit)
			}
			return false
		case *ast.SendStmt:
			park(f, "sends on a channel")
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				park(f, "receives from a channel")
			}
			if lit, ok := n.X.(*ast.CompositeLit); ok && n.Op == token.AND {
				s.structSite(f, n, "&", "{...}", s.info.TypeOf(lit))
			}
		case *ast.SelectStmt:
			park(f, "selects on channels")
		case *ast.RangeStmt:
			if t := s.info.TypeOf(n.X); t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					park(f, "ranges over a channel")
				}
			}
		case *ast.CallExpr:
			s.call(f, n, edge)
		}
		return true
	})
}

// call processes one call expression: direct parks, schedule sites,
// event-context roots and call-graph edges.
func (s *summarizer) call(f *FuncFact, call *ast.CallExpr, edge func(string)) {
	if lit, ok := call.Fun.(*ast.FuncLit); ok {
		// Immediately-invoked literal: runs here, so inherit its facts.
		edge(s.litKey(lit))
		return
	}
	if s.isByteSliceMake(call) {
		pos := s.fset.Position(call.Pos())
		s.pf.SliceSites = append(s.pf.SliceSites, ScheduleSite{
			Pos: call.Pos(), Method: "make", Owner: f.Key, File: pos.Filename,
		})
		return
	}
	if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "new" && len(call.Args) == 1 {
		if _, builtin := s.info.Uses[id].(*types.Builtin); builtin {
			s.structSite(f, call, "new(", ")", s.info.TypeOf(call.Args[0]))
			return
		}
	}
	if s.simCoroutineYield(call) {
		park(f, "yields its coroutine to the engine")
		return
	}
	fn := s.callee(call)
	if fn == nil {
		return
	}
	if why := parkReason(fn); why != "" {
		park(f, why)
		return
	}
	if kind, ok := simScheduleKind(fn); ok {
		s.scheduleCall(f, call, kind)
		return
	}
	edge(fn.FullName())
}

// scheduleCall handles a call to one of the sim package's scheduling
// entry points: marks scheduled callbacks as event-context roots and
// collects hotalloc sites.
func (s *summarizer) scheduleCall(f *FuncFact, call *ast.CallExpr, kind string) {
	// Engine.Go is the engine-sanctioned process spawn: the body runs as
	// a coroutine, not in event context, so it is neither a root nor an
	// edge. Every other entry point takes (time, fn|handler[, arg]).
	if kind == "Go" || len(call.Args) < 2 {
		return
	}
	arg := call.Args[1]
	pos := s.fset.Position(call.Pos())
	switch kind {
	case "At", "After":
		if lit, ok := arg.(*ast.FuncLit); ok {
			s.litFact(lit).Root = RootScheduled
			s.pf.AtSites = append(s.pf.AtSites, ScheduleSite{
				Pos: arg.Pos(), Method: kind, Owner: f.Key, File: pos.Filename,
			})
			return
		}
		s.markFuncValueRoot(arg)
	case "AtCancel", "NewTimer":
		// Sanctioned closure schedulers: AtCancel for cancellable
		// auxiliary work (metrics sampling), NewTimer for long-lived
		// one-time timer construction. Their callbacks still run in
		// event context, so they are roots — just not hotalloc sites.
		if lit, ok := arg.(*ast.FuncLit); ok {
			s.litFact(lit).Root = RootScheduled
			return
		}
		s.markFuncValueRoot(arg)
	case "AtCall", "AfterCall":
		if freshAlloc(arg) {
			s.fresh[ast.Unparen(arg).Pos()] = true
			s.pf.FreshSites = append(s.pf.FreshSites, ScheduleSite{
				Pos: arg.Pos(), Method: kind, Owner: f.Key, File: pos.Filename,
			})
		}
	}
}

// markFuncValueRoot marks a named function or method value passed as a
// schedule callback (e.g. e.AtCancel(t, s.tick)) as an event-context
// root. The target may be declared later in the package (or in another
// one), so the mark is deferred to pendingRoots.
func (s *summarizer) markFuncValueRoot(arg ast.Expr) {
	switch a := arg.(type) {
	case *ast.Ident:
		if fn, ok := s.info.Uses[a].(*types.Func); ok {
			s.pf.pendingRoots[fn.FullName()] = RootScheduled
		}
	case *ast.SelectorExpr:
		if sel, ok := s.info.Selections[a]; ok && sel.Kind() == types.MethodVal {
			if fn, ok := sel.Obj().(*types.Func); ok {
				s.pf.pendingRoots[fn.FullName()] = RootScheduled
			}
		} else if fn, ok := s.info.Uses[a.Sel].(*types.Func); ok {
			s.pf.pendingRoots[fn.FullName()] = RootScheduled
		}
	}
}

// structSite records e — &T{...} or new(T), t being T — as a StructSite of
// f when T is a named struct type. Anonymous structs, arrays, slices and
// maps are not per-message state and are left to the other rules.
func (s *summarizer) structSite(f *FuncFact, e ast.Expr, open, close string, t types.Type) {
	named, ok := t.(*types.Named)
	if !ok || s.fresh[e.Pos()] {
		return
	}
	if _, ok := named.Underlying().(*types.Struct); !ok {
		return
	}
	s.pf.StructSites = append(s.pf.StructSites, ScheduleSite{
		Pos: e.Pos(), Method: open + named.Obj().Name() + close, Owner: f.Key,
		File: s.fset.Position(e.Pos()).Filename,
	})
}

// isByteSliceMake reports whether call is the builtin make producing a
// byte slice — the per-message buffer allocation the pooled data path
// exists to avoid. Byte slices specifically: they are the wire payloads;
// other slice makes (request batches, sort scratch) are judged by the
// closure/handler rules like any code.
func (s *summarizer) isByteSliceMake(call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != "make" {
		return false
	}
	if _, builtin := s.info.Uses[id].(*types.Builtin); !builtin {
		return false
	}
	t := s.info.TypeOf(call)
	if t == nil {
		return false
	}
	sl, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := sl.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Uint8
}

// callee resolves a call's static target function, or nil for dynamic
// calls (interface methods, func values, builtins, conversions).
func (s *summarizer) callee(call *ast.CallExpr) *types.Func {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		fn, _ := s.info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		if sel, ok := s.info.Selections[fun]; ok {
			if sel.Kind() != types.MethodVal {
				return nil
			}
			// Interface dispatch is dynamic: no static callee.
			if types.IsInterface(sel.Recv()) {
				return nil
			}
			fn, _ := sel.Obj().(*types.Func)
			return fn
		}
		// Package-qualified call (pkg.F).
		fn, _ := s.info.Uses[fun.Sel].(*types.Func)
		return fn
	case *ast.ParenExpr:
		inner := &ast.CallExpr{Fun: fun.X, Args: call.Args}
		return s.callee(inner)
	}
	return nil
}

// parkReason classifies stdlib calls that block the calling goroutine.
// The simulator's own parking primitives (Proc.Sleep, Gate.Wait) are
// not listed: their implementations bottom out in the coroutine
// yield (see simCoroutineYield), so the fact propagates to them.
func parkReason(fn *types.Func) string {
	pkg := fn.Pkg()
	if pkg == nil {
		return ""
	}
	switch pkg.Path() {
	case "time":
		if fn.Name() == "Sleep" {
			return "calls time.Sleep"
		}
	case "sync":
		switch fn.Name() {
		case "Lock", "RLock":
			return "acquires a sync lock"
		case "Wait":
			return "waits on a sync primitive"
		}
	}
	return ""
}

// simCoroutineYield reports whether call is the sim package's park
// primitive: an invocation of the func-typed field Proc.yield, the
// process half of the iter.Pull pair the engine resumes processes
// through. It is a call through a field, which the static call graph
// cannot see, so it is named here — the one place a process hands the
// CPU back to the engine, and therefore what makes Proc.Sleep and
// Gate.Wait parks. The other half (Proc.next, called by
// Engine.dispatch under Proc.OnEvent and Gate.Release) needs no entry:
// it runs a process inline and returns when that process yields, so the
// event loop never stalls on it.
func (s *summarizer) simCoroutineYield(call *ast.CallExpr) bool {
	fun, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || fun.Sel.Name != "yield" || !simLikePath(s.pkg.Path()) {
		return false
	}
	sel, ok := s.info.Selections[fun]
	if !ok || sel.Kind() != types.FieldVal {
		return false
	}
	named := namedOf(sel.Recv())
	return named != nil && named.Obj().Name() == "Proc"
}

// simLikePath reports whether pkgPath is the simulation-core package.
// Matching the path suffix (not just the module-qualified path) lets
// analysistest fixtures carry a miniature `sim` sub-package.
func simLikePath(pkgPath string) bool {
	return pkgPath == "ibflow/internal/sim" || path.Base(pkgPath) == "sim"
}

// simScheduleKind classifies fn as one of the sim package's scheduling
// entry points: an Engine method (At, After, AtCancel, AtCall,
// AfterCall, Go) or the NewTimer constructor.
func simScheduleKind(fn *types.Func) (string, bool) {
	pkg := fn.Pkg()
	if pkg == nil || !simLikePath(pkg.Path()) {
		return "", false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return "", false
	}
	if recv := sig.Recv(); recv != nil {
		if named := namedOf(recv.Type()); named == nil || named.Obj().Name() != "Engine" {
			return "", false
		}
		switch fn.Name() {
		case "At", "After", "AtCancel", "AtCall", "AfterCall", "Go":
			return fn.Name(), true
		}
		return "", false
	}
	if fn.Name() == "NewTimer" {
		return "NewTimer", true
	}
	return "", false
}

// freshAlloc reports whether an expression allocates a fresh object at
// the call site: &T{...}, T{...} or new(T).
func freshAlloc(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.CompositeLit:
		return true
	case *ast.UnaryExpr:
		if e.Op != token.AND {
			return false
		}
		_, ok := e.X.(*ast.CompositeLit)
		return ok
	case *ast.CallExpr:
		id, ok := e.Fun.(*ast.Ident)
		return ok && id.Name == "new"
	case *ast.ParenExpr:
		return freshAlloc(e.X)
	}
	return false
}

// isOnEventMethod reports whether fd declares a sim.Handler
// implementation: a method named OnEvent taking one uint64 and
// returning nothing.
func isOnEventMethod(fd *ast.FuncDecl, obj *types.Func) bool {
	if fd.Recv == nil || fd.Name.Name != "OnEvent" {
		return false
	}
	sig, ok := obj.Type().(*types.Signature)
	if !ok || sig.Params().Len() != 1 || sig.Results().Len() != 0 {
		return false
	}
	b, ok := sig.Params().At(0).Type().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Uint64
}

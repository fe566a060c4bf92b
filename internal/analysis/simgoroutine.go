package analysis

import (
	"go/ast"
	"go/types"
	"strconv"
	"strings"
)

// syncPrimitives are the sync types whose presence in simulation code
// signals real (preemptive) concurrency. Under the engine-serialized
// process model they are dead weight at best and a hidden race at worst:
// shared simulation state must be protected by the engine, not by locks.
var syncPrimitives = map[string]bool{
	"Mutex": true, "RWMutex": true, "WaitGroup": true, "Cond": true, "Locker": true,
}

// SimGoroutine flags raw goroutines, sync primitives and bare channel
// operations in simulation packages. Simulated concurrency must go through
// (*sim.Engine).Go, sim.Gate and engine events, which the engine serializes;
// anything else executes outside virtual time and races with the engine.
// No file is exempt: the engine's own process machinery (internal/sim's
// proc.go) switches runtime coroutines directly and holds neither a go
// statement nor a channel.
//
// One package is different: ibflow/internal/runner, the world-sweep
// worker pool, where real goroutines are the point. There the analyzer
// inverts: raw concurrency is sanctioned, and instead it enforces the
// premise that makes the pool safe — the package must stay
// engine-agnostic, so importing ibflow/internal/sim from it is the
// finding. A worker that could name a *sim.Engine could share one
// between goroutines; a package that cannot import the type cannot leak
// the handle.
var SimGoroutine = &Analyzer{
	Name: "simgoroutine",
	Doc: "forbid raw go statements, sync.Mutex/WaitGroup and bare channels in simulation code; " +
		"spawn with (*sim.Engine).Go and synchronize with sim.Gate or engine events so the engine serializes everything " +
		"(in the sanctioned worker-pool package internal/runner the rule inverts: " +
		"raw concurrency is legal but importing internal/sim is not)",
	Run: runSimGoroutine,
}

// simEnginePath is the package whose types must never be visible to the
// sanctioned worker pool.
const simEnginePath = "ibflow/internal/sim"

// sanctionedPoolPackage reports whether the package at path is the
// worker-pool runner (or its test packages). Fixture packages under
// analysistest load with their bare package name, hence the second form.
func sanctionedPoolPackage(path string) bool {
	path = strings.TrimSuffix(path, "_test")
	return path == "ibflow/internal/runner" || path == "runner"
}

// runPoolContract checks the inverted rule for the sanctioned worker-pool
// package: no import of the simulation engine, directly or renamed.
func runPoolContract(pass *Pass) error {
	for _, f := range pass.Files {
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if path == simEnginePath || strings.HasPrefix(path, simEnginePath+"/") {
				pass.Reportf(imp.Pos(),
					"the worker-pool package must stay engine-agnostic: importing %s could leak a *sim.Engine across goroutines; "+
						"pass opaque per-cell closures instead", path)
			}
		}
	}
	return nil
}

func runSimGoroutine(pass *Pass) error {
	if sanctionedPoolPackage(pass.Pkg.Path()) {
		return runPoolContract(pass)
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				pass.Reportf(n.Pos(),
					"raw go statement bypasses the engine-serialized process model; use (*sim.Engine).Go")
			case *ast.SelectorExpr:
				if pkgNameOf(pass.TypesInfo, n.X) == "sync" && syncPrimitives[n.Sel.Name] {
					pass.Reportf(n.Pos(),
						"sync.%s in simulation code; the engine already serializes processes — use sim.Gate for waiting",
						n.Sel.Name)
				}
			case *ast.ChanType:
				pass.Reportf(n.Pos(),
					"bare channel bypasses the engine-serialized process model; use sim.Gate or engine events")
				return false // don't re-flag the element type
			case *ast.SendStmt:
				pass.Reportf(n.Pos(),
					"channel send executes outside virtual time; use sim.Gate.Release or engine events")
			case *ast.UnaryExpr:
				if n.Op.String() == "<-" {
					pass.Reportf(n.Pos(),
						"channel receive executes outside virtual time; use sim.Gate.Wait or engine events")
				}
			case *ast.SelectStmt:
				pass.Reportf(n.Pos(),
					"select statement implies real concurrency; simulated processes wait with sim.Gate or Proc.Sleep")
			case *ast.RangeStmt:
				if t := pass.TypesInfo.TypeOf(n.X); t != nil {
					if _, ok := t.Underlying().(*types.Chan); ok {
						pass.Reportf(n.Pos(),
							"range over channel executes outside virtual time; use sim.Gate or engine events")
					}
				}
			case *ast.CallExpr:
				if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "close" {
					if b, ok := pass.TypesInfo.Uses[id].(*types.Builtin); ok && b.Name() == "close" {
						pass.Reportf(n.Pos(),
							"close of a bare channel executes outside virtual time; wake the waiter with sim.Gate.Release or engine events")
					}
				}
			}
			return true
		})
	}
	return nil
}

package analysis

import "sort"

// SimHotpath flags functions that execute in event context yet park the
// calling goroutine. Event context is the engine's Run loop: a parked
// handler parks the whole simulation, and even a handler that merely
// waits on a sim.Gate is wrong — handlers are not processes and have no
// coroutine to yield. Two kinds of function are event-context roots:
//
//   - OnEvent(uint64) methods (sim.Handler implementations),
//   - closures and method values scheduled with Engine.At / After /
//     AtCancel or sim.NewTimer.
//
// Parking is detected bottom-up through cross-package facts (see
// facts.go): channel operations, select, sync lock acquisition,
// time.Sleep and the sim package's coroutine yield are direct parks, and
// the fact propagates through static calls — so Proc.Sleep and Gate.Wait
// count because their implementations bottom out in that yield. A park
// two call hops away in another package is still flagged at the handler.
var SimHotpath = &Analyzer{
	Name: "simhotpath",
	Doc: "forbid parking (channel ops, select, sync locks, Proc.Sleep/Gate.Wait, time.Sleep) in functions " +
		"reachable from sim.Handler.OnEvent implementations or event-scheduled closures: " +
		"handlers run inside the engine's event loop and must run to completion",
	Run: runSimHotpath,
}

func runSimHotpath(pass *Pass) error {
	pf := SummarizePackage(pass.Fset, pass.Files, pass.Pkg, pass.TypesInfo, pass.Facts.Fact)
	lookup := func(key string) *FuncFact {
		if f := pf.Funcs[key]; f != nil {
			return f
		}
		return pass.Facts.Fact(key)
	}
	keys := make([]string, 0, len(pf.Funcs))
	for k := range pf.Funcs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		f := pf.Funcs[k]
		if f.Root == RootNone || !f.Parks {
			continue
		}
		chain := ParkChain(f, lookup)
		switch f.Root {
		case RootHandler:
			pass.Reportf(f.Pos,
				"handler %s may park the event loop: %s; handlers run in event context and must run to completion",
				ShortKey(k), chain)
		case RootScheduled:
			pass.Reportf(f.Pos,
				"event-scheduled callback %s may park the event loop: %s; scheduled callbacks run in event context and must run to completion",
				ShortKey(k), chain)
		}
	}
	return nil
}

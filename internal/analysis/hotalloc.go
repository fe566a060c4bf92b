package analysis

import (
	"sort"
	"strings"
)

// HotAlloc flags per-event allocations at schedule sites on the event
// hot path — the pattern PR 5's bound-struct handlers (wireEvent,
// ackEvent, ...) exist to avoid:
//
//   - a closure literal passed to Engine.At or Engine.After from a
//     function reachable from event context allocates one closure per
//     event; the fix is a bound struct handler scheduled with
//     AtCall/AfterCall, whose event rides the engine's pool;
//   - a handler built at the AtCall/AfterCall call site (&T{...}, T{...}
//     or new(T)) re-allocates what the bound-struct pattern hoists into
//     the long-lived owner, so it is flagged anywhere in audited code;
//   - a make([]byte, ...) in a function reachable from event context
//     allocates a payload buffer per event; the fix is staging through
//     mem.BufPool, with fclint:allow reserved for genuinely amortized
//     allocations such as pool slab refills;
//   - &T{...} or new(T) of a named struct type in a function reachable
//     from event context allocates an object per event — per-message
//     protocol state, the pattern the rendezvous path was rid of; the fix
//     is a pool the owner recycles (store.Pool, the one recycler: a
//     hand-rolled freelist's refill is not an audited exception) or a
//     field of the long-lived owner. A struct literal used by value stays
//     on the stack and is not flagged.
//
// AtCancel and sim.NewTimer deliberately take closures and are not
// flagged: AtCancel is the sanctioned cancellable path for auxiliary
// work (metrics sampling) and NewTimer is one-time construction of a
// long-lived timer. Test files are also exempt — the closure API's
// benchmarks and tests are its sanctioned callers — but handlers and
// scheduled closures in tests are still simhotpath roots.
var HotAlloc = &Analyzer{
	Name: "hotalloc",
	Doc: "forbid per-event allocations on the event hot path: closures passed to Engine.At/After " +
		"from handler-reachable code, handler structs built at AtCall/AfterCall call sites, and " +
		"make([]byte, ...) and &T{...}/new(T) of named struct types in handler-reachable code — " +
		"bind struct handlers into long-lived owners, stage payloads through pooled buffers and " +
		"take per-message state from a recycled pool instead",
	Run: runHotAlloc,
}

func runHotAlloc(pass *Pass) error {
	pf := SummarizePackage(pass.Fset, pass.Files, pass.Pkg, pass.TypesInfo, pass.Facts.Fact)

	// hotVia maps a package-local function key to the event-context root
	// that reaches it: local roots (including ones test files add) are
	// expanded over local call edges, and the cross-package fact set
	// contributes roots that reach this package from the outside.
	hotVia := map[string]string{}
	keys := make([]string, 0, len(pf.Funcs))
	for k := range pf.Funcs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		f := pf.Funcs[k]
		if f.Root != RootNone {
			hotVia[k] = k
		} else if root, ok := pass.Facts.HotVia(k); ok {
			hotVia[k] = root
		}
	}
	for changed := true; changed; {
		changed = false
		for _, k := range keys {
			root, hot := hotVia[k]
			if !hot {
				continue
			}
			for _, callee := range pf.Funcs[k].Calls {
				if _, ok := hotVia[callee]; !ok && pf.Funcs[callee] != nil {
					hotVia[callee] = root
					changed = true
				}
			}
		}
	}

	for _, site := range pf.AtSites {
		if strings.HasSuffix(site.File, "_test.go") {
			continue
		}
		root, hot := hotVia[site.Owner]
		if !hot {
			continue
		}
		pass.Reportf(site.Pos,
			"closure scheduled with Engine.%s in %s, which runs in event context (reachable from %s): "+
				"this allocates one closure per event — bind a struct handler and schedule with %sCall",
			site.Method, ShortKey(site.Owner), ShortKey(root), site.Method)
	}
	for _, site := range pf.FreshSites {
		if strings.HasSuffix(site.File, "_test.go") {
			continue
		}
		pass.Reportf(site.Pos,
			"handler struct allocated at the Engine.%s call site in %s: this allocates per event — "+
				"hoist the bound struct into its long-lived owner",
			site.Method, ShortKey(site.Owner))
	}
	for _, site := range pf.SliceSites {
		if strings.HasSuffix(site.File, "_test.go") {
			continue
		}
		root, hot := hotVia[site.Owner]
		if !hot {
			continue
		}
		pass.Reportf(site.Pos,
			"make([]byte, ...) in %s, which runs in event context (reachable from %s): "+
				"this allocates a buffer per event — stage through a pooled buffer (mem.BufPool) instead, "+
				"or suppress with fclint:allow if the allocation is amortized",
			ShortKey(site.Owner), ShortKey(root))
	}
	for _, site := range pf.StructSites {
		if strings.HasSuffix(site.File, "_test.go") {
			continue
		}
		root, hot := hotVia[site.Owner]
		if !hot {
			continue
		}
		pass.Reportf(site.Pos,
			"%s in %s, which runs in event context (reachable from %s): "+
				"this allocates an object per event — take it from a pool its owner recycles (store.Pool) "+
				"or keep it in the long-lived owner; a hand-rolled freelist is not an exception, store.Pool is the one recycler",
			site.Method, ShortKey(site.Owner), ShortKey(root))
	}
	return nil
}

package analysis

import "strings"

// All is the fclint analyzer suite.
var All = []*Analyzer{SimWallclock, SimGoroutine, SimMapIter, CreditMut, SimHotpath, HotAlloc}

// KnownNames maps analyzer names, for validating fclint:allow comments.
func KnownNames() map[string]bool {
	m := make(map[string]bool, len(All))
	for _, a := range All {
		m[a.Name] = true
	}
	return m
}

// AuditedPackages are the simulation packages bound by the determinism
// contract: inside them only virtual time, engine-serialized processes and
// audited credit accounting are legal. Test files are audited too —
// a nondeterministic test is as flaky as a nondeterministic model — with
// //fclint:allow escape hatches for the few legitimate wall-clock uses.
var AuditedPackages = []string{
	"ibflow/internal/sim",
	"ibflow/internal/store",
	"ibflow/internal/ib",
	"ibflow/internal/core",
	"ibflow/internal/chdev",
	"ibflow/internal/mpi",
	"ibflow/internal/metrics",
	"ibflow/internal/coll",
	"ibflow/internal/nas",
	"ibflow/internal/mem",
	"ibflow/internal/fault",
	"ibflow/internal/trace",
	"ibflow/internal/enc",
	// The worker-pool runner is audited under an inverted simgoroutine
	// rule: raw concurrency is sanctioned there, importing internal/sim
	// is the violation (see SimGoroutine).
	"ibflow/internal/runner",
}

// Audited reports whether the package at path falls under the determinism
// contract. External test packages ("..._test") audit with their subject.
func Audited(path string) bool {
	path = strings.TrimSuffix(path, "_test")
	for _, p := range AuditedPackages {
		if path == p || strings.HasPrefix(path, p+"/") {
			return true
		}
	}
	return false
}

package main

import (
	"testing"

	"ibflow/internal/bench"
)

// The scaling sweep's on-demand cells carry an absolute bound on top of
// the relative one: more than allocGate objects per message fails the
// diff even when the old document read the same, and nowhere else.
func TestDiffGatesOnDemandCellsAbsolutely(t *testing.T) {
	doc := func(allocs ...float64) *benchDoc {
		return scalingView(&bench.ScalingDoc{
			Ranks: []int{256, 1024}, OnDemandFrom: 512,
			Series: []bench.ScalingSeries{{Scheme: "static", AllocsPerMsg: allocs}},
		})
	}
	regressed := func(oldDoc, newDoc *benchDoc) map[string]bool {
		out := map[string]bool{}
		for _, r := range diffRows(oldDoc, newDoc) {
			out[r.cell] = r.regressed
		}
		return out
	}
	if got := regressed(doc(2.5, 2.5), doc(2.5, 2.5)); got["256"] || !got["1024"] {
		t.Errorf("unchanged 2.5 allocs/msg: regressed = %v, want only the on-demand cell", got)
	}
	if got := regressed(doc(1.0, 1.1), doc(1.2, 1.29)); got["256"] || got["1024"] {
		t.Errorf("growth inside the slack and under the gate: regressed = %v, want none", got)
	}
	if got := regressed(doc(1.0, 1.9), doc(1.0, 2.1)); !got["1024"] {
		t.Errorf("1.9 -> 2.1 at the on-demand cell passed: inside the relative slack, over the gate")
	}
}

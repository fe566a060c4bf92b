package bench

import (
	"fmt"
	"testing"

	"ibflow/internal/mpi"
)

// TestSettleAddsNothingWhenClean: settlement is termination detection,
// not work. Where the unsettled on-demand storm already leaves nothing
// behind — it passes the conservation audit as it stands and settling
// sends no further message — turning Settle on must add no event and no
// virtual time; everywhere, the settled run must pass the audit. Three
// messages per peer stay below every return threshold (ECMs at 5 owed
// credits, ring syncs at half of 8 slots), so all five schemes are clean;
// six is the quick scaling sweep's volume, where the user-level schemes
// and the ring finish with returns in flight and only the hardware and
// shared schemes are. The 128-rank row is that sweep's fat-tree cell with
// on-demand connections: `make scaling-smoke` audits a scale cell on
// every push.
func TestSettleAddsNothingWhenClean(t *testing.T) {
	const size, fanout = 256, 24
	doc := smokeDoc(fanout, 0)
	schemes := connScalingSchemes(doc.Prepost, doc.DynMax, doc.PoolPrepost, doc.PoolMax, doc.RingSlots, doc.SlotBytes)
	for _, msgs := range []int{3, 6} {
		for _, ranks := range []int{16, 128} {
			for _, fc := range schemes {
				t.Run(fmt.Sprintf("%v-%dx%d", fc.Kind, ranks, msgs), func(t *testing.T) {
					run := func(settle bool) *mpi.World {
						opts := doc.cellOptions(fc, ranks)
						opts.Settle = settle
						w := mpi.NewWorld(ranks, opts)
						if err := w.Run(scalingStorm(msgs, size, fanout, nil)); err != nil {
							t.Fatalf("settle=%v: %v", settle, err)
						}
						return w
					}
					plain, settled := run(false), run(true)
					if err := settled.Audit(); err != nil {
						t.Fatalf("settled run fails the audit: %v", err)
					}
					events := settled.Engine().EventsFired() - plain.Engine().EventsFired()
					virt := settled.Time() - plain.Time()
					t.Logf("Settle adds %d events, %v", events, virt)
					if plain.Audit() != nil || plain.Stats() != settled.Stats() {
						// Returns were still in flight at finalize:
						// settling them is real protocol work.
						if msgs == 3 || !fc.UserLevel() && !fc.RingChannel() {
							t.Errorf("unsettled run left work behind (audit: %v)", plain.Audit())
						}
						return
					}
					if events != 0 || virt != 0 {
						t.Errorf("Settle added %d events and %v to a run that left nothing behind", events, virt)
					}
				})
			}
		}
	}
}

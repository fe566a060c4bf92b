package core

import (
	"fmt"

	"ibflow/internal/debug"
	"ibflow/internal/sim"
)

// PoolStats counts shared-pool provisioning events. These feed the
// connection-scaling benchmark the way VC.Stats feeds Tables 1 and 2.
// Takes and limit events are the SRQ's to count (ib.SRQStats), where
// they happen.
type PoolStats struct {
	GrowthEvents uint64 // pool-size increases
}

// Pool is the receiver-side accounting for the shared scheme: the
// counterpart of VC's per-channel posted/owed bookkeeping when receive
// buffers live in one SRQ-backed pool serving every connection. The
// channel device owns the actual SRQ and buffers; the Pool decides and
// counts, exactly as VC does for the credit schemes.
//
// Its conservation law, audited at quiescence, is the shared-shape
// analogue of the credit law: every descriptor the pool accounts for is
// free in the SRQ (InUse == 0 and the SRQ's free count equals Posted),
// so no buffer leaks across the seam.
type Pool struct {
	params *Params

	posted     int      // current pool-size target
	inUse      int      // descriptors taken by arrivals, not yet reposted
	lastGrowth sim.Time // -1 until the first growth (a growth at t=0 still paces)

	stats PoolStats
}

// NewPool creates the shared-pool accounting state for one rank.
// Params must have been validated and must select KindShared.
func NewPool(p *Params) *Pool {
	if !p.SharedPool() {
		panic(fmt.Sprintf("core: NewPool on %v scheme", p.Kind))
	}
	return &Pool{params: p, posted: p.Prepost, lastGrowth: -1}
}

// Posted returns the current pool-size target: how many descriptors the
// device should have provisioned in the SRQ, counting those in flight
// through packet processing. The pool never shrinks, so it is also its
// high-water mark (the Table-2 analogue).
func (pl *Pool) Posted() int { return pl.posted }

// InUse returns descriptors consumed by arrivals and not yet reposted.
func (pl *Pool) InUse() int { return pl.inUse }

// Watermark returns the low-water threshold the SRQ limit event is
// armed at: the growth step, Prepost/4 (at least 1).
func (pl *Pool) Watermark() int { return pl.params.step() }

// Stats returns a copy of the pool's counters.
func (pl *Pool) Stats() PoolStats { return pl.stats }

// Take records an arrival consuming one pooled descriptor.
func (pl *Pool) Take() {
	pl.inUse++
	pl.debugCheck()
}

// Processed records that the device finished processing a message that
// occupied a pooled buffer; the device reposts it into the SRQ (growth is
// one-way, as in the paper's dynamic scheme).
func (pl *Pool) Processed() {
	if pl.inUse <= 0 {
		panic("core: Processed with no pooled buffer in use")
	}
	pl.inUse--
	pl.debugCheck()
}

// OnLimitEvent handles the SRQ's low-watermark limit event: the free
// descriptor count dipped below the watermark, so grow the pool by one
// step up to Max, at most once per growthCooldown (a burst of
// arrivals crossing the watermark repeatedly must not compound the
// growth). It returns how many extra buffers the device must post into
// the SRQ; the pool-size target has already been raised by that amount.
func (pl *Pool) OnLimitEvent(now sim.Time) int {
	if debug.Enabled {
		defer pl.debugCheck()
	}
	p := pl.params
	if pl.posted >= p.Max {
		return 0
	}
	if pl.lastGrowth >= 0 && now-pl.lastGrowth < growthCooldown {
		return 0
	}
	pl.lastGrowth = now
	grow := min(p.step(), p.Max-pl.posted)
	pl.posted += grow
	pl.stats.GrowthEvents++
	return grow
}

// debugCheck re-verifies the invariants after every mutation when built
// with the ibdebug tag; otherwise it compiles to nothing.
func (pl *Pool) debugCheck() {
	if debug.Enabled {
		pl.CheckInvariants()
	}
}

// CheckInvariants panics if the pool bookkeeping went inconsistent;
// tests and the device's audit call it.
func (pl *Pool) CheckInvariants() {
	if pl.posted < 1 {
		panic(fmt.Sprintf("core: pool posted %d < 1", pl.posted))
	}
	if pl.inUse < 0 {
		panic(fmt.Sprintf("core: pool in-use %d < 0", pl.inUse))
	}
	if pl.inUse > pl.posted {
		panic(fmt.Sprintf("core: pool has %d buffers in use but only %d provisioned", pl.inUse, pl.posted))
	}
	if pl.posted > pl.params.Max {
		panic(fmt.Sprintf("core: pool posted %d beyond max %d", pl.posted, pl.params.Max))
	}
}

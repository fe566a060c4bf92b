package core

import (
	"fmt"
	"math"

	"ibflow/internal/debug"
)

// Ring is the flow control bookkeeping for one direction of a persistent
// RDMA-write eager channel (KindRDMA): a fixed ring of pre-registered
// slots that the sender writes into and the receiver consumes in order.
// All counters are absolute (they count slots for the lifetime of the
// connection and never reset); the slot index for a given position is
// position mod slots, counted apart (next). Wraparound of the counters
// falls out of uint32 modular arithmetic, and the conservation law is
// simply
//
//	head <= tail <= head + slots
//
// Each connection endpoint holds two Rings over the same slot count:
// the outbound view (Reserve/SeenHead — sender-owned tail, peer head
// learned from piggybacks) and the inbound view (Arrived/Consumed/
// TakeHead — receiver-owned head, communicated back to the peer). A
// KindRDMA VC owns the pair and answers its decision calls from them.
// Like VC, the Ring is pure bookkeeping: the channel device owns the
// actual slot memory and the wire traffic.
type Ring struct {
	slots int32
	// next is the slot index of position tail. It is counted, not
	// derived as uint32(tail) mod slots: at the 2^32 wrap that jumps
	// unless slots divides 2^32, and two slots in flight would share one
	// index.
	next int32

	// tail counts slots produced: reserved by the sender on the
	// outbound view, arrived (OpRecvImm notifications) on the inbound
	// view.
	tail uint32
	// head counts slots the local receiver has consumed, in order.
	// Only the inbound view advances it.
	head uint32
	// headSeen is the outbound view's knowledge of the peer's head —
	// the most recent value carried back by a piggyback or credit-sync.
	headSeen uint32
	// headSent is the inbound view's record of the head value last
	// communicated to the peer; head - headSent is the unsynced residue
	// the peer does not yet know it may overwrite.
	headSent uint32

	stats RingStats
}

// RingStats counts ring activity for one direction, in 32 bits like the
// ring's own counters: a connection end holds two, and the storm
// benchmark a hundred thousand ends.
type RingStats struct {
	// OccupancyHWM is the high-water mark of in-flight slots
	// (tail - head on the inbound view, tail - headSeen outbound); it
	// never exceeds slots.
	OccupancyHWM int32
	// Syncs counts explicit credit-sync messages sent because the
	// reverse path was idle. Only the inbound view sends heads, so the
	// outbound view's count stays zero.
	Syncs uint32
}

// NewRing returns the bookkeeping for one ring direction of slots slots.
func NewRing(slots int) *Ring {
	r := makeRing(slots)
	return &r
}

// makeRing is NewRing by value, for a VC that holds both directions of
// its connection end in one object.
func makeRing(slots int) Ring {
	if slots < 1 || slots > math.MaxInt32 {
		panic(fmt.Sprintf("core: ring slots %d outside [1, 2^31)", slots))
	}
	return Ring{slots: int32(slots)}
}

// Free returns how many slots the sender may still write without
// overrunning the peer's last known head.
func (r *Ring) Free() int { return int(r.slots) - int(r.tail-r.headSeen) }

// Reserve claims the next outbound slot and returns its index. The
// caller must have checked Free() > 0.
func (r *Ring) Reserve() int {
	if r.Free() <= 0 {
		panic(fmt.Sprintf("core: ring reserve with %d free (tail %d, head seen %d)",
			r.Free(), r.tail, r.headSeen))
	}
	slot := r.produce()
	if occ := int32(r.tail - r.headSeen); occ > r.stats.OccupancyHWM {
		r.stats.OccupancyHWM = occ
	}
	r.debugCheck()
	return slot
}

// produce advances tail by one slot and returns the slot index it
// passed.
func (r *Ring) produce() int {
	slot := r.next
	if r.next++; r.next == r.slots {
		r.next = 0
	}
	r.tail++
	return int(slot)
}

// SeenHead records a peer head value carried back by a piggyback or
// credit-sync and reports whether it advanced. Heads are absolute and
// monotonic, so a duplicated or reordered update is harmless: stale
// values (signed distance <= 0) are ignored. On the outbound view the
// peer's head IS the local head, so both advance together and the
// conservation law reads the same for either direction.
func (r *Ring) SeenHead(h uint32) bool {
	if int32(h-r.headSeen) <= 0 {
		return false
	}
	if debug.Enabled {
		debug.Assert(int32(h-r.tail) <= 0,
			"peer head %d ahead of tail %d", h, r.tail)
	}
	r.headSeen = h
	r.head = h
	r.debugCheck()
	return true
}

// Arrived counts one inbound slot written by the peer (an OpRecvImm
// notification) and returns the slot index it must have landed in.
func (r *Ring) Arrived() int {
	slot := r.produce()
	if int(r.tail-r.head) > int(r.slots) {
		panic(fmt.Sprintf("core: ring overrun: %d arrivals outstanding on %d slots",
			r.tail-r.head, r.slots))
	}
	if occ := int32(r.tail - r.head); occ > r.stats.OccupancyHWM {
		r.stats.OccupancyHWM = occ
	}
	r.debugCheck()
	return slot
}

// Consumed retires the oldest inbound slot: the receiver has copied the
// payload out and the peer may overwrite it once it learns the new head.
func (r *Ring) Consumed() {
	if r.head == r.tail {
		panic("core: ring consume with no outstanding arrivals")
	}
	r.head++
	r.debugCheck()
}

// TakeHead returns the current head for stamping into an outgoing
// header (piggyback or credit-sync) and records it as communicated.
// piggy distinguishes free rides on reverse traffic from explicit
// syncs, which the stats count.
func (r *Ring) TakeHead(piggy bool) uint32 {
	if !piggy && r.headSent != r.head {
		r.stats.Syncs++
	}
	r.headSent = r.head
	return r.head
}

// Unsynced returns how many consumed slots the peer has not yet been
// told about.
func (r *Ring) Unsynced() int { return int(r.head - r.headSent) }

// NeedSync reports whether the unsynced residue warrants an explicit
// credit-sync message. The threshold is half the ring (at least 1): any
// smaller residue will ride a future piggyback, and by the time the
// sender could actually stall — all slots consumed but unannounced —
// the residue has long since crossed half.
func (r *Ring) NeedSync() bool {
	return r.Unsynced() >= r.syncThreshold()
}

func (r *Ring) syncThreshold() int {
	t := int(r.slots) / 2
	if t < 1 {
		t = 1
	}
	return t
}

// Tail returns the absolute produced-slot counter.
func (r *Ring) Tail() uint32 { return r.tail }

// Head returns the absolute consumed-slot counter (the peer's, as last
// learned, on the outbound view).
func (r *Ring) Head() uint32 { return r.head }

// HeadSeen returns the peer head as last learned (outbound view).
func (r *Ring) HeadSeen() uint32 { return r.headSeen }

// HeadSent returns the head value last communicated to the peer
// (inbound view).
func (r *Ring) HeadSent() uint32 { return r.headSent }

// Stats returns the activity counters.
func (r *Ring) Stats() RingStats { return r.stats }

// debugCheck re-verifies the invariants after every mutation when built
// with the ibdebug tag; otherwise it compiles to nothing.
func (r *Ring) debugCheck() {
	if debug.Enabled {
		r.CheckInvariants()
	}
}

// CheckInvariants panics if the ring bookkeeping went inconsistent;
// tests and the device's audit call it. All comparisons use signed
// distances so the law survives uint32 wraparound.
func (r *Ring) CheckInvariants() {
	if d := int32(r.tail - r.head); d < 0 || d > r.slots {
		panic(fmt.Sprintf("core: ring law violated: head %d, tail %d, slots %d",
			r.head, r.tail, r.slots))
	}
	if int32(r.headSeen-r.tail) > 0 {
		panic(fmt.Sprintf("core: ring head seen %d ahead of tail %d", r.headSeen, r.tail))
	}
	if int32(r.headSent-r.head) > 0 {
		panic(fmt.Sprintf("core: ring head sent %d ahead of head %d", r.headSent, r.head))
	}
}

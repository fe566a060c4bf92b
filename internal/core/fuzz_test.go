package core

import (
	"testing"

	"ibflow/internal/sim"
)

// ringAt is NewRing for a connection whose traffic has already moved
// every counter of the ring to pos, with nothing in flight.
func ringAt(slots int, pos uint32) *Ring {
	r := NewRing(slots)
	r.tail, r.head, r.headSeen, r.headSent = pos, pos, pos, pos //fclint:allow creditmut a test ring that starts mid-life, e.g. a few slots short of the 2^32 wrap
	r.next = int32(pos % uint32(slots))
	return r
}

// FuzzRing drives one direction of a ring channel — the sender's outbound
// view and the receiver's inbound view — against plain uint64 counters
// that never wrap. The ring has 1 + slots%8 slots and every counter
// starts at start, so a start a few slots short of 2^32 crosses the
// wrap. A byte's low three bits pick the operation: Reserve, Arrived,
// Consumed, TakeHead, or SeenHead of a head the receiver announced (the
// high bits pick which one: the latest, or a stale or duplicate one).
// After every operation the views agree with the model — each position's
// slot is position mod slots on both sides, Free is slots less what is in
// flight, and head <= tail <= head + slots on both views.
func FuzzRing(f *testing.F) {
	f.Add(uint8(2), uint32(0), []byte{0, 1, 2, 3, 4})
	f.Fuzz(func(t *testing.T, slots uint8, start uint32, ops []byte) {
		n := 1 + int(slots%8)
		out, in := ringAt(n, start), ringAt(n, start)
		base := uint64(start)
		reserved, seen := base, base                     // sender
		arrived, consumed, announced := base, base, base // receiver
		heads := []uint64{base}                          // every head the receiver announced
		check := func(i int, op string) {
			t.Helper()
			if !(consumed <= arrived && arrived <= reserved && reserved <= seen+uint64(n)) {
				t.Fatalf("op %d (%s): the model broke its own law", i, op)
			}
			if got, want := out.Free(), n-int(reserved-seen); got != want {
				t.Fatalf("op %d (%s): Free = %d, want %d", i, op, got, want)
			}
			if out.Tail() != uint32(reserved) || out.HeadSeen() != uint32(seen) {
				t.Fatalf("op %d (%s): outbound tail %d seen %d, want %d %d",
					i, op, out.Tail(), out.HeadSeen(), uint32(reserved), uint32(seen))
			}
			if in.Tail() != uint32(arrived) || in.Head() != uint32(consumed) || in.HeadSent() != uint32(announced) {
				t.Fatalf("op %d (%s): inbound tail %d head %d sent %d, want %d %d %d", i, op,
					in.Tail(), in.Head(), in.HeadSent(), uint32(arrived), uint32(consumed), uint32(announced))
			}
			if got, want := in.Unsynced(), int(consumed-announced); got != want {
				t.Fatalf("op %d (%s): Unsynced = %d, want %d", i, op, got, want)
			}
			out.CheckInvariants()
			in.CheckInvariants()
		}
		for i, b := range ops {
			switch b & 7 {
			case 0:
				if reserved-seen == uint64(n) {
					continue
				}
				if got, want := out.Reserve(), int(reserved%uint64(n)); got != want {
					t.Fatalf("op %d: Reserve = slot %d, want %d", i, got, want)
				}
				reserved++
				check(i, "Reserve")
			case 1:
				if arrived == reserved {
					continue
				}
				if got, want := in.Arrived(), int(arrived%uint64(n)); got != want {
					t.Fatalf("op %d: Arrived = slot %d, want %d (where the sender wrote it)", i, got, want)
				}
				arrived++
				check(i, "Arrived")
			case 2:
				if consumed == arrived {
					continue
				}
				in.Consumed()
				consumed++
				check(i, "Consumed")
			case 3:
				if got := in.TakeHead(b&8 != 0); got != uint32(consumed) {
					t.Fatalf("op %d: TakeHead = %d, want %d", i, got, uint32(consumed))
				}
				announced = consumed
				heads = append(heads, consumed)
				check(i, "TakeHead")
			default:
				h := heads[len(heads)-1-int(b>>3)%len(heads)]
				if got, want := out.SeenHead(uint32(h)), h > seen; got != want {
					t.Fatalf("op %d: SeenHead(%d) = %v with %d seen, want %v", i, uint32(h), got, uint32(seen), want)
				}
				seen = max(seen, h)
				check(i, "SeenHead")
			}
		}
	})
}

// FuzzPool drives the shared scheme's receive-pool accounting against
// plain counters. The pool starts at 1 + prepost%16 descriptors and may
// grow by extra%32 more (0: never), its Prepost/4 step (at least 1) at a
// time. An op byte's low two bits pick Take (an arrival consumes a
// descriptor, if one is free), Processed (one is reposted, if one is in
// use) or an SRQ limit event, which the high bits move the clock ahead
// of, in microseconds. The model grows by the step clamped to max, and
// only once the cooldown has passed since the last growth. After every operation the pool agrees with
// the model — posted, in use, every counter — posted never exceeds max,
// and CheckInvariants holds.
func FuzzPool(f *testing.F) {
	f.Add(uint8(7), uint8(5), []byte{0, 0, 2, 2, 42, 1, 0, 42, 42, 1, 1})
	f.Fuzz(func(t *testing.T, prepost, extra uint8, ops []byte) {
		n := 1 + int(prepost%16)
		p := Shared(n, n+int(extra%32))
		if err := p.Validate(); err != nil {
			t.Fatalf("Shared(%d, %d): %v", p.Prepost, p.Max, err)
		}
		step := max(1, p.Prepost/4)
		pl := NewPool(&p)
		var now sim.Time
		lastGrowth := sim.Time(-1)
		posted, inUse := p.Prepost, 0
		var want PoolStats
		for i, b := range ops {
			switch b & 3 {
			case 0:
				if inUse == posted {
					continue
				}
				pl.Take()
				inUse++
			case 1:
				if inUse == 0 {
					continue
				}
				pl.Processed()
				inUse--
			default:
				now += sim.Time(b>>2) * sim.Microsecond
				grow := 0
				if posted < p.Max && (lastGrowth < 0 || now-lastGrowth >= growthCooldown) {
					grow = min(step, p.Max-posted)
					lastGrowth = now
					want.GrowthEvents++
				}
				if got := pl.OnLimitEvent(now); got != grow {
					t.Fatalf("op %d: limit event at %v with %d posted grew %d, want %d", i, now, posted, got, grow)
				}
				posted += grow
			}
			if pl.Posted() != posted || pl.InUse() != inUse || pl.Stats() != want {
				t.Fatalf("op %d: posted %d in use %d stats %+v, want %d %d %+v",
					i, pl.Posted(), pl.InUse(), pl.Stats(), posted, inUse, want)
			}
			if pl.Posted() > p.Max {
				t.Fatalf("op %d: pool grew to %d past its max %d", i, pl.Posted(), p.Max)
			}
			pl.CheckInvariants()
		}
	})
}

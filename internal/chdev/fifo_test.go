package chdev

import "testing"

func TestFifoOrderAcrossWrap(t *testing.T) {
	var q fifo[int]
	next, drained := 0, 0
	// Interleave pushes and pops so the ring wraps repeatedly.
	for round := 0; round < 50; round++ {
		for i := 0; i < 3; i++ {
			q.push(round*3 + i)
		}
		for i := 0; i < 2; i++ {
			if got := q.pop(); got != next {
				t.Fatalf("pop = %d, want %d", got, next)
			}
			next++
			drained++
		}
	}
	for q.Len() > 0 {
		if got := q.pop(); got != next {
			t.Fatalf("drain pop = %d, want %d", got, next)
		}
		next++
	}
	if next != 150 {
		t.Fatalf("popped %d entries, want 150", next)
	}
}

// TestFifoReleasesBurstCapacity pins the memory-release contract of the
// backlog/slot queues: a burst grows the ring to the burst's depth, and a
// sustained return to low occupancy shrinks it back down instead of
// retaining the worst case forever (the pre-ring slices kept a drained
// burst's capacity for the life of the connection).
func TestFifoReleasesBurstCapacity(t *testing.T) {
	var q fifo[int]
	const burst = 1024
	for i := 0; i < burst; i++ {
		q.push(i)
	}
	if q.capNow() < burst {
		t.Fatalf("ring cap %d after %d-entry burst", q.capNow(), burst)
	}
	for q.Len() > 0 {
		q.pop()
	}
	grown := q.capNow()
	// Steady trickle at occupancy 1: every pop is a low-occupancy pop, so
	// each shrinkSettle of them halves the ring until the floor.
	for i := 0; q.capNow() > fifoMinCap && i < burst*shrinkSettle; i++ {
		q.push(i)
		if got := q.pop(); got != i {
			t.Fatalf("trickle pop = %d, want %d", got, i)
		}
	}
	if q.capNow() > fifoMinCap {
		t.Errorf("ring cap stuck at %d after sustained low occupancy (burst grew it to %d)",
			q.capNow(), grown)
	}
}

// TestFifoShrinkNeedsSustainedSettle pins the hysteresis: occupancy
// dipping below a quarter for fewer than shrinkSettle pops must not
// shrink, so a workload oscillating around the threshold does not thrash.
func TestFifoShrinkNeedsSustainedSettle(t *testing.T) {
	var q fifo[int]
	const burst = 256
	for i := 0; i < burst; i++ {
		q.push(i)
	}
	for q.Len() > 0 {
		q.pop()
	}
	capBefore := q.capNow()
	for i := 0; i < shrinkSettle-1; i++ {
		q.push(i)
		q.pop()
	}
	if q.capNow() != capBefore {
		t.Errorf("ring shrank from %d to %d before the settle elapsed", capBefore, q.capNow())
	}
	// Refilling above a quarter resets the settle counter.
	refill := capBefore/4 + 1
	for i := 0; i < refill; i++ {
		q.push(i)
	}
	q.pop() // high-occupancy pop resets quiet
	for i := 0; i < refill-1; i++ {
		q.pop()
	}
	if q.capNow() != capBefore {
		t.Errorf("ring shrank to %d right after a refill", q.capNow())
	}
}

// TestFifoPopZeroesSlot pins that dequeued slots drop their references,
// so a popped backlog entry's pooled buffer is not pinned by the ring.
func TestFifoPopZeroesSlot(t *testing.T) {
	var q fifo[*int]
	v := new(int)
	q.push(v)
	if got := q.pop(); got != v {
		t.Fatal("pop returned wrong value")
	}
	for i := range q.ring {
		if q.ring[i] != nil {
			t.Fatalf("ring slot %d still references the popped value", i)
		}
	}
}

// A seeded queue lives in its owner's ring until it outgrows it — the
// first entries cost no allocation — and at() reaches every queued entry
// in place, head first, across the wrap.
func TestFifoSeedAndAt(t *testing.T) {
	var inline [4]int
	var q fifo[int]
	q.seed(inline[:])
	for i := 0; i < 6; i++ { // wrap inside the seed ring
		q.push(i)
		if i >= 2 {
			if got := q.pop(); got != i-2 {
				t.Fatalf("pop = %d, want %d", got, i-2)
			}
		}
	}
	if q.Len() != 2 || &q.ring[0] != &inline[0] {
		t.Fatalf("len %d, ring moved off the seed: %v", q.Len(), &q.ring[0] != &inline[0])
	}
	for i := 6; i < 10; i++ {
		q.push(i)
	}
	if q.capNow() != 2*len(inline) || &q.ring[0] == &inline[0] {
		t.Fatalf("cap %d after outgrowing a %d-entry seed", q.capNow(), len(inline))
	}
	for i := 0; i < q.Len(); i++ {
		if got := *q.at(i); got != 4+i {
			t.Errorf("at(%d) = %d, want %d", i, got, 4+i)
		}
	}
	*q.at(1) = -1
	q.pop()
	if got := q.pop(); got != -1 {
		t.Errorf("a write through at(1) did not reach the entry: popped %d", got)
	}
}

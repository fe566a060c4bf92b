package store

import "testing"

func TestFifoOrderAcrossWrap(t *testing.T) {
	var q Fifo[int]
	next, drained := 0, 0
	// Interleave pushes and pops so the ring wraps repeatedly.
	for round := 0; round < 50; round++ {
		for i := 0; i < 3; i++ {
			q.Push(round*3 + i)
		}
		for i := 0; i < 2; i++ {
			if got := q.Pop(); got != next {
				t.Fatalf("pop = %d, want %d", got, next)
			}
			next++
			drained++
		}
	}
	for q.Len() > 0 {
		if got := q.Pop(); got != next {
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
	var q Fifo[int]
	const burst = 1024
	for i := 0; i < burst; i++ {
		q.Push(i)
	}
	if q.Cap() < burst {
		t.Fatalf("ring cap %d after %d-entry burst", q.Cap(), burst)
	}
	for q.Len() > 0 {
		q.Pop()
	}
	grown := q.Cap()
	// Steady trickle at occupancy 1: every pop is a low-occupancy pop, so
	// each shrinkSettle of them halves the ring until the floor.
	for i := 0; q.Cap() > fifoMinCap && i < burst*shrinkSettle; i++ {
		q.Push(i)
		if got := q.Pop(); got != i {
			t.Fatalf("trickle pop = %d, want %d", got, i)
		}
	}
	if q.Cap() > fifoMinCap {
		t.Errorf("ring cap stuck at %d after sustained low occupancy (burst grew it to %d)",
			q.Cap(), grown)
	}
}

// TestFifoShrinkNeedsSustainedSettle pins the hysteresis: occupancy
// dipping below a quarter for fewer than shrinkSettle pops must not
// shrink, so a workload oscillating around the threshold does not thrash.
func TestFifoShrinkNeedsSustainedSettle(t *testing.T) {
	var q Fifo[int]
	const burst = 256
	for i := 0; i < burst; i++ {
		q.Push(i)
	}
	for q.Len() > 0 {
		q.Pop()
	}
	capBefore := q.Cap()
	for i := 0; i < shrinkSettle-1; i++ {
		q.Push(i)
		q.Pop()
	}
	if q.Cap() != capBefore {
		t.Errorf("ring shrank from %d to %d before the settle elapsed", capBefore, q.Cap())
	}
	// Refilling above a quarter resets the settle counter.
	refill := capBefore/4 + 1
	for i := 0; i < refill; i++ {
		q.Push(i)
	}
	q.Pop() // high-occupancy pop resets quiet
	for i := 0; i < refill-1; i++ {
		q.Pop()
	}
	if q.Cap() != capBefore {
		t.Errorf("ring shrank to %d right after a refill", q.Cap())
	}
}

// TestFifoPopZeroesSlot pins that dequeued slots drop their references,
// so a popped backlog entry's pooled buffer is not pinned by the ring.
func TestFifoPopZeroesSlot(t *testing.T) {
	var q Fifo[*int]
	v := new(int)
	q.Push(v)
	if got := q.Pop(); got != v {
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
	var q Fifo[int]
	q.Seed(inline[:])
	for i := 0; i < 6; i++ { // wrap inside the seed ring
		q.Push(i)
		if i >= 2 {
			if got := q.Pop(); got != i-2 {
				t.Fatalf("pop = %d, want %d", got, i-2)
			}
		}
	}
	if q.Len() != 2 || &q.ring[0] != &inline[0] {
		t.Fatalf("len %d, ring moved off the seed: %v", q.Len(), &q.ring[0] != &inline[0])
	}
	for i := 6; i < 10; i++ {
		q.Push(i)
	}
	if q.Cap() != 2*len(inline) || &q.ring[0] == &inline[0] {
		t.Fatalf("cap %d after outgrowing a %d-entry seed", q.Cap(), len(inline))
	}
	for i := 0; i < q.Len(); i++ {
		if got := *q.At(i); got != 4+i {
			t.Errorf("at(%d) = %d, want %d", i, got, 4+i)
		}
	}
	*q.At(1) = -1
	q.Pop()
	if got := q.Pop(); got != -1 {
		t.Errorf("a write through at(1) did not reach the entry: popped %d", got)
	}
}

// The QP send queue's life at its own sizes: a four-entry seed, outgrown
// to 8 and then 16 by a deepening window, drained, and run at depth again.
// FIFO order holds across every move, the seed is left clean behind (it
// outlives the move inside its owner), and once the ring has the window's
// size a never-draining window pushes and pops without allocating.
func TestFifoSeedOutgrowDrain(t *testing.T) {
	var inline [4]*int
	var q Fifo[*int]
	q.Seed(inline[:])
	vals := make([]int, 64)
	next, popped := 0, 0
	push := func() {
		vals[next] = next
		q.Push(&vals[next])
		next++
	}
	pop := func() {
		t.Helper()
		if got := *q.Pop(); got != popped {
			t.Fatalf("pop = %d, want %d", got, popped)
		}
		popped++
	}
	for _, depth := range []int{4, 8, 12} {
		for q.Len() < depth {
			push()
		}
		pop()
		push() // wraps inside the current ring
		if want := max(4, 1<<bits(depth-1)); q.Cap() != want {
			t.Fatalf("depth %d: ring cap %d, want %d", depth, q.Cap(), want)
		}
	}
	for i := range inline {
		if inline[i] != nil {
			t.Fatalf("seed slot %d still references an entry after the queue outgrew it", i)
		}
	}
	for q.Len() > 0 {
		pop()
	}
	if q.Cap() != 16 {
		t.Fatalf("ring cap %d after one drain, want 16 (a shrink needs %d quiet pops)", q.Cap(), shrinkSettle)
	}
	v := 0
	for q.Len() < 10 {
		q.Push(&v)
	}
	if n := testing.AllocsPerRun(3, func() {
		for i := 0; i < 1000; i++ {
			q.Push(&v)
			q.Pop()
		}
	}); n != 0 {
		t.Errorf("1000 push/pops of a window of 10 over a 16-entry ring allocate %.0f objects, want 0", n)
	}
}

// bits is the position of n's highest set bit, plus one.
func bits(n int) int {
	b := 0
	for ; n > 0; n >>= 1 {
		b++
	}
	return b
}

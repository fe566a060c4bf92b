// Package store holds the two pieces of recycled storage the message path
// is built on, below every package that uses them (it imports nothing of
// the simulator): Fifo, the one ring buffer behind every queue of the
// transport and the channel device, and Pool, the one chunked
// carve-and-recycle allocator behind their per-message objects.
package store

// Fifo is a FIFO queue over a reusable power-of-two ring buffer: the
// connection's backlog and send contexts, a QP's send queue and every
// receive queue. It replaces the append/reslice idiom, which had two
// allocation pathologies: every push beyond capacity reallocated (the
// backing array crawls forward as the head is resliced away), and a
// burst's worst-case capacity was retained forever. The ring pushes and
// pops with no allocation at steady state, and releases a drained burst's
// memory: after shrinkSettle consecutive pops at occupancy below a quarter
// of capacity, the ring reallocates down to half. Popped slots are zeroed
// so the queue never pins a pooled buffer past its dequeue. Its three
// cursors are 32 bits each: a Fifo is five words, what the hand-rolled
// rings it replaced cost, so the objects that embed several stay in their
// size class.
type Fifo[T any] struct {
	ring  []T   // power-of-two length
	start int32 // index of the head element
	count int32
	quiet int32 // consecutive pops at count < len(ring)/4
}

const (
	// fifoMinCap is the smallest ring ever allocated; shrinking stops here.
	fifoMinCap = 8
	// shrinkSettle is how many consecutive low-occupancy pops must elapse
	// before the ring halves — long enough that a steady workload
	// oscillating around a quarter occupancy does not thrash
	// shrink-and-regrow, short enough that a drained burst's memory is
	// returned within one progress sweep.
	shrinkSettle = 64
)

// Len reports queued entries.
func (q *Fifo[T]) Len() int { return int(q.count) }

// Cap reports the current ring size: zero until the first push or Seed.
func (q *Fifo[T]) Cap() int { return len(q.ring) }

// Push appends v at the tail.
func (q *Fifo[T]) Push(v T) {
	if int(q.count) == len(q.ring) {
		q.resize(max(fifoMinCap, 2*len(q.ring)))
	}
	q.ring[int(q.start+q.count)&(len(q.ring)-1)] = v
	q.count++
}

// At returns the i-th queued entry, the head being 0, in place: the
// pointer is good until the next Push or Pop.
func (q *Fifo[T]) At(i int) *T { return &q.ring[(int(q.start)+i)&(len(q.ring)-1)] }

// Seed gives an empty queue its first ring (a power-of-two length), for
// an owner that keeps one inline; the queue outgrows it like any other
// and never shrinks back below fifoMinCap.
func (q *Fifo[T]) Seed(ring []T) { q.ring = ring }

// Pop removes and returns the head (see Drop).
func (q *Fifo[T]) Pop() T {
	v := q.ring[q.start]
	q.Drop()
	return v
}

// Drop removes the head, zeroing its slot and shrinking the ring once
// occupancy has stayed under a quarter of capacity for shrinkSettle
// consecutive pops. With At(0) it is Pop without the copy out, for an
// owner whose entries are large.
func (q *Fifo[T]) Drop() {
	var zero T
	q.ring[q.start] = zero
	q.start = (q.start + 1) & int32(len(q.ring)-1)
	q.count--
	if len(q.ring) > fifoMinCap && int(q.count) < len(q.ring)/4 {
		q.quiet++
		if q.quiet >= shrinkSettle {
			q.resize(len(q.ring) / 2)
		}
	} else {
		q.quiet = 0
	}
}

// resize moves the queue, compacted to the front, onto a fresh ring of n
// slots (a power of two, ≥ count). The ring left behind is cleared: it may
// be the owner's seed, which outlives the move.
func (q *Fifo[T]) resize(n int) {
	next := make([]T, n)
	for i := 0; i < int(q.count); i++ {
		next[i] = *q.At(i)
	}
	clear(q.ring)
	q.ring = next
	q.start = 0
	q.quiet = 0
}

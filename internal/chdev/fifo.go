package chdev

// fifo is a FIFO queue over a reusable power-of-two ring buffer. It
// replaces the append/reslice idiom on the device's backlog and slot
// lists, which had two allocation pathologies: every push beyond capacity
// reallocated (the backing array crawls forward as the head is resliced
// away), and a burst's worst-case capacity was retained forever. The ring
// pushes and pops with no allocation at steady state, and releases a
// drained burst's memory: after shrinkSettle consecutive pops at
// occupancy below a quarter of capacity, the ring reallocates down to
// half. Popped slots are zeroed so the queue never pins a pooled buffer
// past its dequeue.
type fifo[T any] struct {
	ring  []T // power-of-two length
	start int // index of the head element
	count int
	quiet int // consecutive pops at count < len(ring)/4
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
func (q *fifo[T]) Len() int { return q.count }

// capNow reports the current ring size, for the shrink tests.
func (q *fifo[T]) capNow() int { return len(q.ring) }

// push appends v at the tail.
func (q *fifo[T]) push(v T) {
	if q.count == len(q.ring) {
		n := 2 * len(q.ring)
		if n == 0 {
			n = fifoMinCap
		}
		q.resize(n)
	}
	q.ring[(q.start+q.count)&(len(q.ring)-1)] = v
	q.count++
}

// at returns the i-th queued entry, the head being 0, in place: the
// pointer is good until the next push or pop.
func (q *fifo[T]) at(i int) *T { return &q.ring[(q.start+i)&(len(q.ring)-1)] }

// seed gives an empty queue its first ring (a power-of-two length), for
// an owner that keeps one inline; the queue outgrows it like any other
// and never shrinks back below fifoMinCap.
func (q *fifo[T]) seed(ring []T) { q.ring = ring }

// pop removes and returns the head, zeroing its slot and shrinking the
// ring once occupancy has stayed under a quarter of capacity for
// shrinkSettle consecutive pops.
func (q *fifo[T]) pop() T {
	v := q.ring[q.start]
	var zero T
	q.ring[q.start] = zero
	q.start = (q.start + 1) & (len(q.ring) - 1)
	q.count--
	if len(q.ring) > fifoMinCap && q.count < len(q.ring)/4 {
		q.quiet++
		if q.quiet >= shrinkSettle {
			q.resize(len(q.ring) / 2)
		}
	} else {
		q.quiet = 0
	}
	return v
}

// resize reallocates the ring to n slots (a power of two, ≥ count) and
// compacts the queue to the front.
func (q *fifo[T]) resize(n int) {
	next := make([]T, n)
	for i := 0; i < q.count; i++ {
		next[i] = q.ring[(q.start+i)&(len(q.ring)-1)]
	}
	q.ring = next
	q.start = 0
	q.quiet = 0
}

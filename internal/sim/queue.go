package sim

// This file implements the engine's event queue: a hierarchical bucketed
// (ladder-style) priority queue keyed on (time, seq). It replaces the old
// container/heap binary heap on the hot path while preserving its exact
// total order — the determinism contract every harness in this repository
// rests on.
//
// Shape:
//
//   near     an exact (at, seq)-ordered binary min-heap holding every
//            event with at < horizon. The global minimum always lives
//            here, so pops are exact regardless of bucket granularity.
//   buckets  a ring of numBuckets buckets, each bucketWidth ns wide,
//            covering [horizon, horizon+span). Insertion is O(1): events
//            land in the bucket of their time block, unsorted. Only a
//            non-empty bucket holds storage (see bucketSeed).
//   far      an unsorted overflow list for events at or beyond
//            horizon+span, with its minimum time tracked incrementally.
//
// When near drains, the current bucket's events are dumped into near (the
// heap re-establishes exact (at, seq) order) and the horizon advances one
// width. Before a bucket becomes current, any far events that have come
// due are migrated into the ring, so an event can never be popped ahead
// of an earlier one parked in far. When everything below far's minimum is
// exhausted, the horizon jumps straight to it — empty virtual time costs
// nothing.
//
// Total order is exact because of one invariant: every event in near is
// earlier than the horizon, and every event in buckets or far is at or
// after it. The near heap breaks ties by insertion sequence exactly as
// the old heap did, so the replacement is observationally identical.

const (
	// bucketBits sets the bucket width: 1<<bucketBits ns. 1024 ns spans
	// a typical switch/ack latency, so co-pending events spread across
	// buckets instead of piling into one heap.
	bucketBits  = 10
	bucketWidth = Time(1) << bucketBits
	// numBuckets sets the ring size; the bucketed span is
	// numBuckets*bucketWidth ≈ 262 µs, comfortably covering RNR backoff
	// and fault-outage horizons so the far list stays cold.
	numBuckets = 256
	span       = Time(numBuckets) * bucketWidth
	// bucketSeed is the capacity of a fresh bucket backing and bucketChunk
	// how many event slots the queue allocates at a time to carve those
	// from. A backing is the queue's, not a bucket's: a drained bucket
	// hands its backing to the next one that fills (spare), so the queue
	// holds as many as were ever non-empty at once — a handful in a 2-rank
	// world, up to numBuckets in a large one — and a world's first lap
	// around the ring costs one allocation per 64 buckets, where growing
	// each bucket 1→2→4→8 by append cost four per bucket. Past bucketSeed
	// a backing doubles by append as any slice does, and is handed on at
	// the size it reached.
	bucketSeed  = 8
	bucketChunk = 512
	// horizonCap guards int64 overflow: once the horizon would pass it,
	// the queue collapses into the plain exact heap (events that far out
	// — centuries of virtual time — are not a performance concern).
	horizonCap = MaxTime - 4*span
)

// eventQueue is the engine's pending-event set. The zero value is ready
// to use.
type eventQueue struct {
	near      nearHeap
	horizon   Time // exclusive upper bound of near; multiple of bucketWidth
	buckets   [numBuckets][]*event
	chunk     []*event   // rest of the current carve chunk (see bucketSeed)
	spare     [][]*event // backings of drained buckets, for the next bucket that fills
	nbucketed int
	far       []*event
	farMin    Time // min at over far; meaningful only when far is non-empty
	size      int
}

// push inserts ev, routing by time relative to the horizon. In the
// overflow regime (horizon pinned past horizonCap) everything goes to the
// exact heap, which also covers events at MaxTime itself.
func (q *eventQueue) push(ev *event) {
	q.size++
	switch {
	case ev.at < q.horizon || q.horizon > horizonCap:
		q.near.push(ev)
	case ev.at-q.horizon < span:
		q.bucket(ev)
	default:
		if len(q.far) == 0 || ev.at < q.farMin {
			q.farMin = ev.at
		}
		q.far = append(q.far, ev)
	}
}

// bucket files ev, which falls inside the bucketed span, in the bucket of
// its time block. An empty bucket has no backing: it takes a drained
// bucket's, or carves a fresh one from the queue's chunk.
func (q *eventQueue) bucket(ev *event) {
	idx := int((ev.at >> bucketBits) % numBuckets)
	b := q.buckets[idx]
	if cap(b) == 0 {
		if n := len(q.spare); n > 0 {
			b, q.spare[n-1], q.spare = q.spare[n-1], nil, q.spare[:n-1]
		} else {
			if len(q.chunk) < bucketSeed {
				q.chunk = make([]*event, bucketChunk)
			}
			b, q.chunk = q.chunk[:0:bucketSeed], q.chunk[bucketSeed:]
		}
	}
	q.buckets[idx] = append(b, ev)
	q.nbucketed++
}

// peek returns the earliest event without removing it, or nil when empty.
func (q *eventQueue) peek() *event {
	if len(q.near.a) == 0 {
		q.advance()
		if len(q.near.a) == 0 {
			return nil
		}
	}
	return q.near.a[0]
}

// pop removes and returns the earliest event, or nil when empty.
func (q *eventQueue) pop() *event {
	if len(q.near.a) == 0 {
		q.advance()
		if len(q.near.a) == 0 {
			return nil
		}
	}
	q.size--
	return q.near.pop()
}

// advance refills near from the ring (and far) until it holds the global
// minimum. Called only when near is empty.
func (q *eventQueue) advance() {
	for len(q.near.a) == 0 {
		if q.nbucketed == 0 {
			if len(q.far) == 0 {
				return // queue empty
			}
			// Nothing pending below far's minimum: jump the horizon
			// straight there instead of walking empty buckets.
			h := q.farMin &^ (bucketWidth - 1)
			if h > horizonCap {
				q.collapse()
				return
			}
			q.horizon = h
			q.migrate()
			continue
		}
		// Pull far events due within the bucket about to become current,
		// so ring order can never overtake a parked far event.
		if len(q.far) > 0 && q.farMin < q.horizon+bucketWidth {
			q.migrate()
		}
		idx := int((q.horizon >> bucketBits) % numBuckets)
		if b := q.buckets[idx]; len(b) > 0 {
			for i, ev := range b {
				q.near.push(ev)
				b[i] = nil
			}
			q.nbucketed -= len(b)
			q.buckets[idx] = nil
			q.spare = append(q.spare, b[:0])
		}
		q.horizon += bucketWidth
		if q.horizon > horizonCap {
			q.collapse()
			return
		}
	}
}

// migrate redistributes far events that now fall inside the bucketed span
// and recomputes farMin over the remainder.
func (q *eventQueue) migrate() {
	kept := q.far[:0]
	min := MaxTime
	for _, ev := range q.far {
		if ev.at-q.horizon < span { // far events satisfy at >= horizon
			q.bucket(ev)
			continue
		}
		if ev.at < min {
			min = ev.at
		}
		kept = append(kept, ev)
	}
	for i := len(kept); i < len(q.far); i++ {
		q.far[i] = nil
	}
	q.far = kept
	q.farMin = min
}

// collapse dumps the ring and far into the exact heap and pins the
// horizon past the cap — the overflow fallback near MaxTime, after which
// the queue behaves exactly like the old single binary heap.
func (q *eventQueue) collapse() {
	for i := range q.buckets {
		b := q.buckets[i]
		for j, ev := range b {
			q.near.push(ev)
			b[j] = nil
		}
		q.buckets[i] = b[:0]
	}
	q.nbucketed = 0
	for i, ev := range q.far {
		q.near.push(ev)
		q.far[i] = nil
	}
	q.far = q.far[:0]
	q.horizon = MaxTime
}

// nearHeap is a concrete binary min-heap of events ordered by (at, seq).
// Hand-rolled (no container/heap) so comparisons and swaps inline and
// nothing passes through interface{}.
type nearHeap struct {
	a []*event
}

// eventLess is the total order: time first, insertion sequence as the
// deterministic tie-break.
func eventLess(x, y *event) bool {
	if x.at != y.at {
		return x.at < y.at
	}
	return x.seq < y.seq
}

func (h *nearHeap) push(ev *event) {
	h.a = append(h.a, ev)
	i := len(h.a) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !eventLess(h.a[i], h.a[parent]) {
			break
		}
		h.a[i], h.a[parent] = h.a[parent], h.a[i]
		i = parent
	}
}

func (h *nearHeap) pop() *event {
	a := h.a
	top := a[0]
	n := len(a) - 1
	a[0] = a[n]
	a[n] = nil
	h.a = a[:n]
	if n > 1 {
		h.siftDown(0)
	}
	return top
}

func (h *nearHeap) siftDown(i int) {
	a := h.a
	n := len(a)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		min := l
		if r := l + 1; r < n && eventLess(a[r], a[l]) {
			min = r
		}
		if !eventLess(a[min], a[i]) {
			return
		}
		a[i], a[min] = a[min], a[i]
		i = min
	}
}

package sim

// This file implements the engine's event queue: one binary min-heap keyed
// on (time, seq). Ties break by insertion sequence, so the pop order is a
// total order fixed by the schedule alone — the determinism contract every
// harness in this repository rests on.
//
// Each slot holds its event's key inline beside the pointer, so a sift
// compares within the heap's own backing and never dereferences an event.
// It is hand-rolled (no container/heap) so comparisons and moves inline
// and nothing passes through interface{}. Events are the engine's pooled
// structs; the queue only orders them, and its backing grows to the
// deepest pending set a run reaches and is reused from then on.

// eventQueue is the engine's pending-event set; its length is the number
// of pending events. The zero value is ready to use.
type eventQueue []slot

// slot is one heap entry: an event and its (at, seq) key, copied in at
// push. A queued event's key never changes (Cancel clears only its
// handler), so the copy stays exact until the pop.
type slot struct {
	at  Time
	seq uint64
	ev  *event
}

// before is the total order: time first, insertion sequence as the
// deterministic tie-break.
func (s slot) before(o slot) bool {
	if s.at != o.at {
		return s.at < o.at
	}
	return s.seq < o.seq
}

// push inserts ev at a new leaf.
func (q *eventQueue) push(ev *event) {
	s := slot{at: ev.at, seq: ev.seq, ev: ev}
	*q = append(*q, s)
	q.up(len(*q)-1, s)
}

// up sifts the hole at i toward the root past every parent later than s,
// then fills it with s.
func (q eventQueue) up(i int, s slot) {
	for i > 0 {
		parent := (i - 1) / 2
		if !s.before(q[parent]) {
			break
		}
		q[i] = q[parent]
		i = parent
	}
	q[i] = s
}

// peek returns the earliest event without removing it, or nil when empty.
func (q *eventQueue) peek() *event {
	if len(*q) == 0 {
		return nil
	}
	return (*q)[0].ev
}

// pop removes and returns the earliest event, or nil when empty. The
// root's hole sinks along the smaller children to a leaf, and the last
// slot, which belongs near the bottom, rises from there into place: about
// half the comparisons of sifting it down from the root.
func (q *eventQueue) pop() *event {
	h := *q
	n := len(h) - 1
	if n < 0 {
		return nil
	}
	top, last := h[0].ev, h[n]
	h[n] = slot{}
	h = h[:n]
	*q = h
	if n == 0 {
		return top
	}
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && h[r].before(h[c]) {
			c = r
		}
		h[i] = h[c]
		i = c
	}
	h.up(i, last)
	return top
}

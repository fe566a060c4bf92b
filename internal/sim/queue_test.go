package sim

import (
	"sort"
	"testing"
)

// The heap must be observationally identical to a plain sorted (at, seq)
// list: same pop order for every workload shape. These tests drive it
// with adversarial patterns — randomized interleaved push/pop, heavy ties,
// times from nanoseconds to centuries, MaxTime itself — and compare
// against a reference sort.

// refLess is the canonical (at, seq) total order, written apart from the
// queue's own comparison.
func refLess(x, y *event) bool {
	if x.at != y.at {
		return x.at < y.at
	}
	return x.seq < y.seq
}

// refOrder sorts a copy of evs by refLess.
func refOrder(evs []*event) []*event {
	ref := append([]*event(nil), evs...)
	sort.Slice(ref, func(i, j int) bool { return refLess(ref[i], ref[j]) })
	return ref
}

// drain pops everything from q, asserting each pop matches ref.
func drain(t *testing.T, q *eventQueue, ref []*event) {
	t.Helper()
	for i, want := range ref {
		got := q.pop()
		if got == nil {
			t.Fatalf("pop %d: queue empty, want at=%d seq=%d", i, want.at, want.seq)
		}
		if got != want {
			t.Fatalf("pop %d: got at=%d seq=%d, want at=%d seq=%d",
				i, got.at, got.seq, want.at, want.seq)
		}
	}
	if q.pop() != nil {
		t.Fatalf("queue not empty after draining %d events", len(ref))
	}
	if len(*q) != 0 {
		t.Fatalf("size = %d after drain, want 0", len(*q))
	}
}

func TestQueueRandomizedOrderEquivalence(t *testing.T) {
	// Several deterministic seeds, each mixing four time scales.
	for _, seed := range []uint64{1, 7, 42, 1234} {
		r := NewRand(seed)
		q := &eventQueue{}
		var seq uint64
		var all []*event
		for i := 0; i < 5000; i++ {
			var at Time
			switch r.Intn(4) {
			case 0: // a couple of microseconds: heavy near-ties
				at = Time(r.Intn(2000))
			case 1: // a quarter millisecond
				at = Time(r.Intn(1 << 18))
			case 2: // up to a second past that
				at = 1<<18 + Time(r.Intn(1<<30))
			case 3: // anywhere up to a quarter of MaxTime
				at = Time(r.Uint64() >> 2)
			}
			seq++
			ev := &event{at: at, seq: seq}
			all = append(all, ev)
			q.push(ev)
		}
		drain(t, q, refOrder(all))
	}
}

func TestQueueInterleavedPushPop(t *testing.T) {
	// Pops interleave with pushes; later pushes must be >= the last popped
	// time (the engine never schedules into the past). Checks the global
	// order emitted by the queue matches a reference replay.
	r := NewRand(99)
	q := &eventQueue{}
	var seq uint64
	var now Time
	var popped []*event
	live := map[*event]bool{}
	push := func(at Time) {
		if at < now {
			at = now
		}
		seq++
		ev := &event{at: at, seq: seq}
		live[ev] = true
		q.push(ev)
	}
	for i := 0; i < 200; i++ {
		push(Time(r.Intn(100000)))
	}
	for i := 0; i < 20000; i++ {
		if r.Intn(3) != 0 || len(*q) == 0 {
			// Schedule relative to now, mimicking After(d) at mixed scales.
			d := Time(r.Intn(1 << uint(4+r.Intn(26))))
			push(now + d)
		} else {
			ev := q.pop()
			if ev == nil {
				t.Fatalf("step %d: pop returned nil with size>0", i)
			}
			if !live[ev] {
				t.Fatalf("step %d: popped unknown/duplicate event", i)
			}
			delete(live, ev)
			if ev.at < now {
				t.Fatalf("step %d: time went backwards: %d < %d", i, ev.at, now)
			}
			now = ev.at
			popped = append(popped, ev)
		}
	}
	// Drain the rest; the tail must be sorted and complete.
	for {
		ev := q.pop()
		if ev == nil {
			break
		}
		if !live[ev] {
			t.Fatalf("drain: popped unknown/duplicate event")
		}
		delete(live, ev)
		popped = append(popped, ev)
	}
	if len(live) != 0 {
		t.Fatalf("%d events lost by the queue", len(live))
	}
	for i := 1; i < len(popped); i++ {
		if refLess(popped[i], popped[i-1]) {
			t.Fatalf("pop order violated at %d: (%d,%d) after (%d,%d)",
				i, popped[i].at, popped[i].seq, popped[i-1].at, popped[i-1].seq)
		}
	}
}

func TestQueueTieBreakBySeq(t *testing.T) {
	// Many events at identical times must pop in insertion order, at any
	// base time.
	for _, base := range []Time{0, 1 << 17, 3 << 18, MaxTime} {
		q := &eventQueue{}
		var all []*event
		var seq uint64
		for i := 0; i < 100; i++ {
			seq++
			ev := &event{at: base, seq: seq}
			all = append(all, ev)
			q.push(ev)
		}
		drain(t, q, refOrder(all))
	}
}

func TestQueueNearMaxTime(t *testing.T) {
	// Events at and around MaxTime must order like any others: no key
	// arithmetic may wrap int64.
	q := &eventQueue{}
	evs := []*event{
		{at: 5, seq: 1},
		{at: MaxTime, seq: 2},
		{at: MaxTime - 1, seq: 3},
		{at: MaxTime - 1<<20 + 1, seq: 4},
		{at: MaxTime, seq: 5},
	}
	for _, ev := range evs {
		q.push(ev)
	}
	// Pushes after a pop (>= the popped time) must still be accepted and
	// ordered.
	ref := refOrder(evs)
	got := q.pop()
	if got != ref[0] {
		t.Fatalf("first pop: got seq=%d, want seq=%d", got.seq, ref[0].seq)
	}
	late := &event{at: MaxTime - 2, seq: 6}
	q.push(late)
	rest := refOrder(append(evs[1:], late))
	drain(t, q, rest)
}

func TestEngineFreelistRecycles(t *testing.T) {
	// Steady-state churn must reuse event structs rather than carving
	// without bound.
	e := NewEngine()
	n := 0
	var fn func()
	fn = func() {
		n++
		if n < 10000 {
			e.After(3, fn)
		}
	}
	e.After(1, fn)
	if err := e.Run(MaxTime); err != nil {
		t.Fatal(err)
	}
	if n != 10000 {
		t.Fatalf("fired %d events, want 10000", n)
	}
	if got := e.events.Carved(); got > 8 {
		t.Fatalf("the engine carved %d events for a 1-pending workload", got)
	}
}

func TestScheduledHandleSurvivesRecycle(t *testing.T) {
	// A Scheduled handle whose event has fired and been recycled for an
	// unrelated event must not cancel the newcomer.
	e := NewEngine()
	ranA, ranB := false, false
	h := e.AtCancel(1, func() { ranA = true })
	if got := e.Steps(1); got != 1 {
		t.Fatalf("Steps = %d, want 1", got)
	}
	// The struct behind h is now on the freelist; reuse it.
	e.At(2, func() { ranB = true })
	h.Cancel() // stale: must be a no-op on the recycled event
	if err := e.Run(MaxTime); err != nil {
		t.Fatal(err)
	}
	if !ranA || !ranB {
		t.Fatalf("ranA=%v ranB=%v, want both true (stale Cancel must not kill a recycled event)", ranA, ranB)
	}
}

func TestAtCallOrderMatchesAt(t *testing.T) {
	// AtCall events interleave with At closures in strict (time, seq) order.
	e := NewEngine()
	var order []int
	rec := recorder{out: &order}
	e.AtCall(5, &rec, 0)
	e.At(5, func() { order = append(order, 1) })
	e.AtCall(5, &rec, 2)
	e.At(3, func() { order = append(order, 3) })
	e.AtCall(7, &rec, 4)
	if err := e.Run(MaxTime); err != nil {
		t.Fatal(err)
	}
	want := []int{3, 0, 1, 2, 4}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

type recorder struct{ out *[]int }

func (r *recorder) OnEvent(arg uint64) { *r.out = append(*r.out, int(arg)) }

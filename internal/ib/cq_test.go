package ib

import (
	"testing"

	"ibflow/internal/sim"
)

// twoCQs is one fabric's two adapters with a CQ each: they draw their
// entries from the fabric's one pool.
func twoCQs() (*Fabric, *CQ, *CQ) {
	f := NewFabric(sim.NewEngine(), DefaultConfig(), 2)
	return f, f.HCA(0).NewCQ(), f.HCA(1).NewCQ()
}

// TestCQFIFOAcrossSharedPool interleaves pushes and polls on two CQs that
// share the fabric's entry pool: each hands back its own completions, in
// push order, whatever the other does with the nodes in between.
func TestCQFIFOAcrossSharedPool(t *testing.T) {
	_, a, b := twoCQs()
	var nextA, nextB, wantA, wantB uint64
	poll := func(cq *CQ, want *uint64, name string) {
		t.Helper()
		wc, ok := cq.Poll()
		if !ok {
			t.Fatalf("%s: Poll found nothing with %d pending", name, cq.Len())
		}
		if wc.WRID != *want {
			t.Fatalf("%s: polled WRID %d, want %d", name, wc.WRID, *want)
		}
		*want++
	}
	for round := 0; round < 50; round++ {
		for i := 0; i < round%7+1; i++ {
			a.push(WC{WRID: nextA})
			nextA++
			if i%2 == 0 {
				b.push(WC{WRID: nextB})
				nextB++
			}
		}
		for i := 0; i < round%5 && a.Len() > 0; i++ {
			poll(a, &wantA, "a")
			if b.Len() > 0 {
				poll(b, &wantB, "b")
			}
		}
	}
	for a.Len() > 0 {
		poll(a, &wantA, "a")
	}
	for b.Len() > 0 {
		poll(b, &wantB, "b")
	}
	if wantA != nextA || wantB != nextB {
		t.Fatalf("polled %d and %d completions, pushed %d and %d", wantA, wantB, nextA, nextB)
	}
	if _, ok := a.Poll(); ok {
		t.Error("Poll on a drained CQ returned a completion")
	}
	if a.head != nil || a.tail != nil || b.head != nil || b.tail != nil {
		t.Error("a drained CQ still links entries")
	}
}

// TestCQPollReleasesEntry: the node a completion waited in goes back to
// the pool zeroed, so it pins neither the buffer the completion named
// nor its queue pair.
func TestCQPollReleasesEntry(t *testing.T) {
	_, cq, _ := twoCQs()
	qp := new(QP)
	cq.push(WC{QP: qp, WRID: 1, Buf: make([]byte, 64)})
	cq.push(WC{QP: qp, WRID: 2, Buf: make([]byte, 64)})
	e := cq.head
	wc, ok := cq.Poll()
	if !ok || wc.WRID != 1 || len(wc.Buf) != 64 || wc.QP != qp {
		t.Fatalf("Poll = %+v, %v; want WRID 1 with its buffer and QP", wc, ok)
	}
	if e.Buf != nil || e.QP != nil || e.next != nil {
		t.Errorf("polled entry still holds Buf %v, QP %p, next %p", e.Buf != nil, e.QP, e.next)
	}
}

// TestCQBurstAllocatesNothingWarm: once the fabric's pool has held a
// burst, the same burst on two CQs — 64 deep on each, pushed and then
// polled dry — allocates nothing: a CQ owns no ring that grows with its
// depth.
func TestCQBurstAllocatesNothingWarm(t *testing.T) {
	_, a, b := twoCQs()
	burst := func() {
		for i := 0; i < 64; i++ {
			a.push(WC{WRID: uint64(i)})
			b.push(WC{WRID: uint64(i)})
		}
		for a.Len() > 0 {
			a.Poll()
		}
		for b.Len() > 0 {
			b.Poll()
		}
	}
	burst()
	if n := testing.AllocsPerRun(20, burst); n != 0 {
		t.Errorf("a warm 64-deep burst on two CQs allocates %.1f objects, want 0", n)
	}
}

package store

import "testing"

type box struct {
	id  int
	ref *int
}

// A pool doubles — the next chunk holds as many objects as were carved so
// far, at least 4 and at most 64 — so a small owner pays for a handful and
// a large one allocates once per 64 objects.
func TestPoolChunkGrowth(t *testing.T) {
	var p Pool[box]
	var sizes []int
	for i := 0; i < 2000; i++ {
		fresh := len(p.chunk) == 0
		p.Get()
		if fresh {
			sizes = append(sizes, len(p.chunk)+1)
		}
	}
	want := []int{4, 4, 8, 16, 32, 64, 64}
	for i, w := range want {
		if sizes[i] != w {
			t.Fatalf("chunk sizes %v, want them to start %v", sizes, want)
		}
	}
	if last := sizes[len(sizes)-1]; last != chunkMax {
		t.Errorf("a pool of 2000 objects still carves chunks of %d, want %d", last, chunkMax)
	}
	if p.Carved() != 2000 {
		t.Errorf("Carved = %d, want 2000", p.Carved())
	}
}

// Get hands out distinct zeroed objects; Put leaves the object alone (the
// owner decides what stays readable), and the next Get reuses the one most
// recently returned, zeroed. A steady Get/Put cycle allocates nothing.
func TestPoolRecycles(t *testing.T) {
	var p Pool[box]
	n := 7
	a, b := p.Get(), p.Get()
	if a == b {
		t.Fatal("two Gets returned the same object")
	}
	a.id, a.ref = 1, &n
	b.id = 2
	a.ref = nil // the owner drops its references; id stays readable
	p.Put(a)
	if a.id != 1 {
		t.Errorf("Put cleared the object: id = %d", a.id)
	}
	p.Put(b)
	if got := p.Get(); got != b || *got != (box{}) {
		t.Errorf("Get after Put = %p %+v, want the last object returned (%p), zeroed", got, *got, b)
	}
	if got := p.Get(); got != a || *got != (box{}) {
		t.Errorf("second Get = %p %+v, want %p zeroed", got, *got, a)
	}
	if p.Carved() != 2 {
		t.Errorf("recycling carved: %d objects made, want 2", p.Carved())
	}
	p.Put(a)
	if n := testing.AllocsPerRun(3, func() {
		for i := 0; i < 1000; i++ {
			p.Put(p.Get())
		}
	}); n != 0 {
		t.Errorf("1000 Get/Put cycles allocate %.0f objects, want 0", n)
	}
}

// An owner that never returns anything (registration handles) costs one
// allocation per chunk: at 64 per chunk, under 0.02 per object.
func TestPoolCarveOnlyAmortizes(t *testing.T) {
	var p Pool[box]
	for i := 0; i < 512; i++ {
		p.Get()
	}
	if n := testing.AllocsPerRun(3, func() {
		for i := 0; i < 640; i++ {
			p.Get()
		}
	}); n > 10 && !tracking {
		t.Errorf("carving 640 objects allocates %.0f times, want 10 (one per %d)", n, chunkMax)
	}
}

// The free stack starts in the pool itself and, outgrown, is made as deep
// as the pool has carved: it cannot hold more, so returning everything
// costs one allocation, not one per doubling, and a pool of a handful
// never allocates a stack at all.
func TestPoolFreeStackGrowsToCarved(t *testing.T) {
	var p Pool[box]
	objs := make([]*box, 100)
	for i := range objs {
		objs[i] = p.Get()
	}
	for i, v := range objs {
		p.Put(v)
		if i < chunkMin && &p.free[0] != &p.free0[0] {
			t.Fatalf("the stack left the pool's own backing at %d objects", i+1)
		}
	}
	if cap(p.free) != p.Carved() {
		t.Errorf("free stack of %d slots for %d objects carved", cap(p.free), p.Carved())
	}
	for i := len(objs) - 1; i >= 0; i-- {
		if got := p.Get(); got != objs[i] {
			t.Fatalf("object %d did not come back in last-in-first-out order", i)
		}
	}
}

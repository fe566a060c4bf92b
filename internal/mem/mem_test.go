package mem

import (
	"runtime"
	"testing"

	"ibflow/internal/ib"
	"ibflow/internal/sim"
)

func TestBufPoolRecycles(t *testing.T) {
	p := NewBufPool(64)
	a := p.Get()
	b := p.Get()
	if len(a) != 64 || len(b) != 64 {
		t.Fatal("wrong buffer size")
	}
	if p.Outstanding() != 2 || p.Allocated() != 2 {
		t.Fatalf("out=%d alloc=%d", p.Outstanding(), p.Allocated())
	}
	p.Put(a)
	c := p.Get()
	if &c[0] != &a[0] {
		t.Error("pool did not recycle the freed buffer")
	}
	if p.Allocated() != 2 {
		t.Errorf("allocated %d, want 2 (recycled)", p.Allocated())
	}
	if p.MaxOutstanding() != 2 {
		t.Errorf("max outstanding = %d", p.MaxOutstanding())
	}
}

// A pool nobody warmed follows its demand: the next slab is a quarter of
// what has been carved (at least slabStep, at most slabBufs buffers), so
// a demand that peaks at k buffers holds at most k + max(slabStep,
// k/slabStep) of them, and growing costs at most one allocation per
// slabStep carves — one per 8 from 128 buffers on, one per slabBufs in
// the end.
func TestBufPoolSlabGrowth(t *testing.T) {
	const size = 16
	for _, k := range []int{1, 3, 4, 5, 16, 34, 48, 64, 128, 300, 1000} {
		p := NewBufPool(size)
		bufs := make([][]byte, 0, k)
		slabs := 0
		for i := 0; i < k; i++ {
			if len(p.slab) < size {
				slabs++
			}
			bufs = append(bufs, p.Get())
		}
		held := p.Allocated() + len(p.slab)/size
		if limit := k + max(slabStep, k/slabStep); p.Allocated() != k || held > limit {
			t.Errorf("demand %d: pool carved %d and holds %d buffers, want %d carved and at most %d held",
				k, p.Allocated(), held, k, limit)
		}
		limit := (k + slabStep - 1) / slabStep
		if k >= 128 {
			limit = k / 8
		}
		if slabs > limit {
			t.Errorf("demand %d: %d slab allocations, want at most %d", k, slabs, limit)
		}
		// Carved buffers must still be independent spans.
		for i := range bufs {
			bufs[i][0] = byte(i)
		}
		for i := range bufs {
			if bufs[i][0] != byte(i) {
				t.Fatalf("demand %d: carved buffers overlap at %d", k, i)
			}
		}
		if p.Recycled() != 0 {
			t.Errorf("recycled = %d before any Put", p.Recycled())
		}
		p.Put(bufs[0])
		p.Get()
		if p.Recycled() != 1 || p.Allocated() != k {
			t.Errorf("demand %d: recycled = %d, carved = %d after one recycle", k, p.Recycled(), p.Allocated())
		}
	}

	// The slab really is one allocation: allow slack for the ibdebug
	// tracking map, but a per-buffer make([]byte) regression (one malloc
	// per Get) must fail.
	p := NewBufPool(size)
	for i := 0; i < 4*slabBufs; i++ {
		p.Get()
	}
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	for i := 0; i < slabBufs; i++ {
		p.Get()
	}
	runtime.ReadMemStats(&ms1)
	if got := ms1.Mallocs - ms0.Mallocs; got > slabBufs/2 {
		t.Errorf("%d mallocs for %d carves of a grown pool; slab growth should amortize", got, slabBufs)
	}
}

// Warm makes a full first slab a provisioning cost: it allocates the slab
// once, carves nothing, and the slabBufs Gets that follow allocate
// nothing; after that the pool follows its demand like any other.
func TestBufPoolWarm(t *testing.T) {
	p := NewBufPool(2048)
	p.Warm()
	slab := &p.slab[0]
	p.Warm()
	if &p.slab[0] != slab || len(p.slab) != slabBufs*2048 || p.Allocated() != 0 || p.Outstanding() != 0 {
		t.Fatalf("Warm twice: reallocated=%v slab=%d allocated=%d outstanding=%d",
			&p.slab[0] != slab, len(p.slab), p.Allocated(), p.Outstanding())
	}
	if b := p.Get(); &b[0] != slab || p.Allocated() != 1 {
		t.Errorf("first Get after Warm carved elsewhere (allocated %d)", p.Allocated())
	}
	// Once anything was carved, Warm never allocates again — not even
	// when the slab has been used up.
	for i := 1; i < slabBufs; i++ {
		p.Get()
	}
	p.Warm()
	if len(p.slab) != 0 {
		t.Errorf("Warm refilled a used-up slab (%d bytes)", len(p.slab))
	}
	p.Get()
	if got, want := len(p.slab)/2048+1, slabBufs/slabStep; got != want {
		t.Errorf("the slab after a warmed one holds %d buffers, want %d (a quarter of what was carved)", got, want)
	}
}

func TestBufPoolPanicsOnMisuse(t *testing.T) {
	p := NewBufPool(32)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("foreign buffer accepted")
			}
		}()
		p.Put(make([]byte, 16))
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("over-return accepted")
			}
		}()
		p.Put(make([]byte, 32))
	}()
}

func TestRegCacheHitsAndMisses(t *testing.T) {
	eng := sim.NewEngine()
	f := ib.NewFabric(eng, ib.DefaultConfig(), 1)
	rc := NewRegCache(f.HCA(0))
	buf := make([]byte, 10000)
	mr1, cost1 := rc.Register(buf)
	if cost1 == 0 {
		t.Error("first registration must cost time")
	}
	mr2, cost2 := rc.Register(buf)
	if cost2 != 0 || mr1 != mr2 {
		t.Error("second registration should hit the cache")
	}
	// A shorter prefix still fits the cached region.
	if _, c := rc.Register(buf[:100]); c == 0 {
		t.Log("prefix shares the base address; either behaviour is defensible")
	}
	other := make([]byte, 64)
	if _, c := rc.Register(other); c == 0 {
		t.Error("different buffer must register anew")
	}
	if rc.Hits() < 1 || rc.Misses() < 2 {
		t.Errorf("hits=%d misses=%d", rc.Hits(), rc.Misses())
	}
}

func TestRegCacheGrowsCoverage(t *testing.T) {
	eng := sim.NewEngine()
	f := ib.NewFabric(eng, ib.DefaultConfig(), 1)
	rc := NewRegCache(f.HCA(0))
	big := make([]byte, 8192)
	rc.Register(big[:128]) // registers only the prefix
	mr, cost := rc.Register(big)
	if cost == 0 {
		t.Error("longer span over same base must re-register")
	}
	if mr.Len() != len(big) {
		t.Errorf("region length %d", mr.Len())
	}
}

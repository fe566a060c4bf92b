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

func TestBufPoolSlabGrowth(t *testing.T) {
	p := NewBufPool(16)
	var ms0, ms1 runtime.MemStats
	bufs := make([][]byte, 0, slabBufs)
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	for i := 0; i < slabBufs; i++ {
		bufs = append(bufs, p.Get())
	}
	runtime.ReadMemStats(&ms1)
	if p.Allocated() != slabBufs {
		t.Fatalf("allocated %d, want %d", p.Allocated(), slabBufs)
	}
	// One slab backs all slabBufs carves; allow slack for the ibdebug
	// tracking map, but a per-buffer make([]byte) regression (one malloc
	// per Get) must fail.
	if got := ms1.Mallocs - ms0.Mallocs; got > slabBufs/2 {
		t.Errorf("%d mallocs for %d carves; slab growth should amortize", got, slabBufs)
	}
	// Carved buffers must still be independent spans.
	for i := range bufs {
		bufs[i][0] = byte(i)
	}
	for i := range bufs {
		if bufs[i][0] != byte(i) {
			t.Fatalf("carved buffers overlap at %d", i)
		}
	}
	if p.Recycled() != 0 {
		t.Errorf("recycled = %d before any Put", p.Recycled())
	}
	p.Put(bufs[0])
	p.Get()
	if p.Recycled() != 1 {
		t.Errorf("recycled = %d after one recycle", p.Recycled())
	}
}

// Warm makes the first slab a provisioning cost: it allocates the slab
// once, carves nothing, and the Gets that follow allocate nothing.
func TestBufPoolWarm(t *testing.T) {
	p := NewBufPool(2048)
	p.Warm()
	slab := &p.slab[0]
	p.Warm()
	if &p.slab[0] != slab || p.Allocated() != 0 || p.Outstanding() != 0 {
		t.Fatalf("Warm twice: reallocated=%v allocated=%d outstanding=%d",
			&p.slab[0] != slab, p.Allocated(), p.Outstanding())
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

package mem

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"ibflow/internal/debug"
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

// An unwarmed pool's first slab holds slabStep buffers of the first class
// asked for, not slabStep full-size ones: an RDMA device staging three
// 304-byte packets holds 2 KB where it held 8 KB. The carves after the
// first come from that slab without allocating, and the slab after it
// follows the full-size law (a quarter of what was carved, at least
// slabStep full-size buffers).
func TestBufPoolFirstSlabFitsItsClass(t *testing.T) {
	const size = 2048
	p := NewBufPool(size)
	first := p.GetN(304)
	if cap(first) != 512 || len(p.slab) != 3*512 {
		t.Fatalf("first GetN(304): a %d-byte buffer and %d bytes left in the slab, want 512 and %d", cap(first), len(p.slab), 3*512)
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	second, third := p.GetN(512), p.GetN(400)
	runtime.ReadMemStats(&ms1)
	if got := ms1.Mallocs - ms0.Mallocs; got != 0 && !debug.Enabled {
		t.Errorf("the next two 512-B carves allocated %d objects, want 0", got)
	}
	base := unsafe.Pointer(&first[0])
	if unsafe.Pointer(&second[0]) != unsafe.Add(base, 512) || unsafe.Pointer(&third[0]) != unsafe.Add(base, 1024) {
		t.Error("the next two 512-B carves are not the first slab's next buffers")
	}
	p.GetN(512)
	if len(p.slab) != 0 {
		t.Fatalf("four 512-B carves left %d bytes of the first slab, want 0", len(p.slab))
	}
	p.GetN(64)
	if got, want := len(p.slab)+64, slabStep*size; got != want {
		t.Errorf("the second slab holds %d bytes, want %d (slabStep full-size buffers)", got, want)
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

// FuzzBufPool drives the pool with an op per input byte against a counted
// model. The first byte picks BufSize: 16 (one class, smaller than the
// smallest), 100, 2048 (the device default) or 3000 (a top class that is
// not a power of two). Then a byte's low two bits pick Get, GetN of a
// length the next two bytes give, a Put of one of the buffers out (the
// high bits pick which), or a Put of a capacity no class has, which must
// panic and change nothing. A buffer must be n bytes long with its class's
// capacity — the smallest power of two from 64 that holds n, capped at
// BufSize — overlap no other buffer out across its whole capacity, and be
// the one of its class most recently returned whenever there is one;
// Outstanding, MaxOutstanding, Allocated and Recycled must count what the
// model counts.
// A class's free stack grows straight to what the class has carved, the
// most it can ever hold: after N carves spread over the classes, putting
// all N back allocates at most one stack per class, where growing by
// doubling from the seed cost one per power of two on the way.
func TestBufPoolFreeStackGrowsOnce(t *testing.T) {
	const size = 2048
	sizes := []int{1, 100, 300, 600, 1200, size}
	for _, n := range []int{3, 40, 500} {
		p := NewBufPool(size)
		bufs := make([][]byte, 0, n)
		for i := 0; i < n; i++ {
			bufs = append(bufs, p.GetN(sizes[i%len(sizes)]))
		}
		classes := min(n, len(sizes))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, b := range bufs {
			p.Put(b)
		}
		runtime.ReadMemStats(&after)
		if got := after.Mallocs - before.Mallocs; got > uint64(classes) {
			t.Errorf("%d carves over %d classes: putting them back allocated %d objects, want at most %d",
				n, classes, got, classes)
		}
		if p.Outstanding() != 0 {
			t.Fatalf("%d buffers out after every one came back", p.Outstanding())
		}
	}
}

func FuzzBufPool(f *testing.F) {
	f.Add([]byte{2, 1, 0, 48, 1, 1, 0, 0, 2, 0, 1, 7, 208, 3, 2, 1, 0, 48})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) == 0 {
			return
		}
		size := [...]int{16, 100, 2048, 3000}[ops[0]&3]
		p := NewBufPool(size)
		classCap := func(n int) int {
			c := 64
			for c < n {
				c *= 2
			}
			return min(c, size)
		}
		var out [][]byte
		free := map[int][][]byte{} // by capacity, last returned on top
		carved, recycled, maxOut := 0, 0, 0
		get := func(i, n int, b []byte) {
			if len(b) != n || cap(b) != classCap(n) {
				t.Fatalf("op %d: a %d-byte buffer is %d/%d bytes, want capacity %d", i, n, len(b), cap(b), classCap(n))
			}
			if l := free[cap(b)]; len(l) > 0 {
				if unsafe.SliceData(b) != unsafe.SliceData(l[len(l)-1]) {
					t.Fatalf("op %d: a %d-byte buffer is not the one of its class returned last", i, n)
				}
				free[cap(b)] = l[:len(l)-1]
				recycled++
			} else {
				carved++
			}
			for _, o := range out {
				if Overlaps(o, b[:cap(b)]) {
					t.Fatalf("op %d: a %d-byte buffer overlaps one still out", i, n)
				}
			}
			out = append(out, b)
			maxOut = max(maxOut, len(out))
		}
		for i := 1; i < len(ops); i++ {
			switch op := ops[i]; {
			case op&3 == 0:
				get(i, size, p.Get())
			case op&3 == 1:
				var x, y byte
				if i+2 < len(ops) {
					x, y = ops[i+1], ops[i+2]
					i += 2
				}
				n := (int(x)<<8 | int(y)) % (size + 1)
				get(i, n, p.GetN(n))
			case op&3 == 2 && len(out) > 0:
				k := int(op>>2) % len(out)
				b := out[k]
				out = append(out[:k], out[k+1:]...)
				p.Put(b)
				free[cap(b)] = append(free[cap(b)], b)
			default:
				n := int(op>>2) * 53 % (size + 64)
				if n > 0 && n == classCap(n) {
					n++
				}
				func() {
					defer func() {
						if recover() == nil {
							t.Fatalf("op %d: Put of a %d-byte capacity, no class's, did not panic", i, n)
						}
					}()
					p.Put(make([]byte, n))
				}()
			}
			if p.Outstanding() != len(out) || p.MaxOutstanding() != maxOut || p.Allocated() != carved || p.Recycled() != recycled {
				t.Fatalf("op %d: pool counts out %d (max %d), carved %d, recycled %d; the model %d (%d), %d, %d", i,
					p.Outstanding(), p.MaxOutstanding(), p.Allocated(), p.Recycled(), len(out), maxOut, carved, recycled)
			}
		}
		for _, b := range out {
			p.Put(b)
		}
		if p.Outstanding() != 0 {
			t.Fatalf("%d buffers out after every one came back", p.Outstanding())
		}
	})
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

// A freed block comes back from the free list of its exact length, the
// one freed last first, zeroed; a block of another length is not taken
// for it, and a block freed through a shorter reslicing is freed whole.
func TestBlocksRecycleZeroed(t *testing.T) {
	var b Blocks
	if b.Get(0) != nil {
		t.Error("Get(0) returned a block")
	}
	x, y := b.Get(64), b.Get(64)
	z := b.Get(100)
	for _, blk := range [][]byte{x, y, z} {
		for i := range blk {
			blk[i] = 0xAB
		}
	}
	b.Put(x[:10])
	b.Put(y)
	b.Put(z)
	if got := b.Get(64); &got[0] != &y[0] {
		t.Error("the block freed last did not come back first")
	}
	got := b.Get(64)
	if &got[0] != &x[0] || len(got) != 64 || cap(got) != 64 {
		t.Fatalf("the block freed through x[:10] came back as %d/%d bytes, same block %v", len(got), cap(got), &got[0] == &x[0])
	}
	for i, v := range got {
		if v != 0 {
			t.Fatalf("recycled block not zeroed at %d: %#x", i, v)
		}
	}
	if fresh := b.Get(64); &fresh[0] == &x[0] || &fresh[0] == &y[0] || &fresh[0] == &z[0] {
		t.Error("an empty free list handed out a block that is still out")
	}
}

// regMiss registers buf and reports whether the cache missed.
func regMiss(rc *RegCache, buf []byte) bool {
	_, cost := rc.Register(buf)
	return cost != 0
}

// Invalidate ends exactly the registrations keyed inside the block: at
// its first byte, inside it and at its last byte — not those of its
// neighbours, the byte before it and the byte after it in one backing
// array. An ended region's id stops resolving.
func TestInvalidateDropsExactlyTheBlock(t *testing.T) {
	eng := sim.NewEngine()
	f := ib.NewFabric(eng, ib.DefaultConfig(), 1)
	hca := f.HCA(0)
	rc := NewRegCache(hca)
	const n = 32
	slab := make([]byte, 3*n)
	prev, blk, next := slab[:n:n], slab[n:2*n:2*n], slab[2*n:]
	inside := [][]byte{blk, blk[n/2 : n/2+4], blk[n-1:]}
	outside := [][]byte{prev[n-1:], next[:1], next}
	var ids []int
	for _, b := range append(append([][]byte{}, inside...), outside...) {
		mr, _ := rc.Register(b)
		ids = append(ids, mr.ID())
	}
	rc.Invalidate(blk[:1]) // a block is its whole capacity
	for i, b := range inside {
		if !regMiss(rc, b) {
			t.Errorf("registration %d inside the block survived Invalidate", i)
		}
		id := ids[i]
		func() {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "was deregistered") {
					t.Errorf("LookupMR of ended region %d: %v, want the deregistered panic", id, r)
				}
			}()
			hca.LookupMR(id)
		}()
	}
	for i, b := range outside {
		if regMiss(rc, b) {
			t.Errorf("registration %d outside the block was dropped", i)
		}
	}
	if len(rc.keys) != len(rc.entries) || !slices.IsSorted(rc.keys) {
		t.Errorf("address index holds %d keys (sorted %v) for %d entries", len(rc.keys), slices.IsSorted(rc.keys), len(rc.entries))
	}
}

// FuzzRegCache checks the pin-down cache's one promise about recycled
// memory against an oracle that never recycles. Each op byte's low two
// bits pick AllocMem (a Blocks.Get of one of a few lengths), FreeMem
// (Invalidate, then Blocks.Put) or a registration of a sub-slice of a live
// block whose bounds the next two bytes pick. The oracle replays the
// script with every allocation a make it has never seen and every free a
// no-op. Every registration must hit or miss alike on both sides, cost
// the same and get the same region id — what a rendezvous puts on the
// wire — and the cache's address index, once the first free built it,
// must track its entries.
func FuzzRegCache(f *testing.F) {
	f.Add([]byte{0, 2, 0, 7, 2, 0, 7, 1, 0, 2, 0, 7})
	f.Fuzz(func(t *testing.T, ops []byte) {
		sizes := [...]int{1, 8, 64, 100, 4096}
		eng := sim.NewEngine()
		fab := ib.NewFabric(eng, ib.DefaultConfig(), 2)
		rc, oracle := NewRegCache(fab.HCA(0)), NewRegCache(fab.HCA(1))
		var blocks Blocks
		var live, fresh [][]byte // live blocks, and the oracle's buffer for each
		var seen [][]byte        // every oracle buffer, kept so no address comes back
		for i := 0; i < len(ops); i++ {
			b := ops[i]
			switch {
			case b&3 == 0 || len(live) == 0:
				n := sizes[int(b>>2)%len(sizes)]
				live = append(live, blocks.Get(n))
				fresh = append(fresh, make([]byte, n))
				seen = append(seen, fresh[len(fresh)-1])
			case b&3 == 1:
				k := int(b>>2) % len(live)
				rc.Invalidate(live[k])
				blocks.Put(live[k])
				live = append(live[:k], live[k+1:]...)
				fresh = append(fresh[:k], fresh[k+1:]...)
			default:
				k := int(b>>2) % len(live)
				var x, y byte
				if i+2 < len(ops) {
					x, y = ops[i+1], ops[i+2]
					i += 2
				}
				n := len(live[k])
				off := int(x) % n
				end := off + 1 + int(y)%(n-off)
				mr, cost := rc.Register(live[k][off:end])
				omr, ocost := oracle.Register(fresh[k][off:end])
				if cost != ocost || mr.ID() != omr.ID() {
					t.Fatalf("op %d: registering [%d,%d) of a %d-byte block: cost %v, region %d; a fresh buffer: cost %v, region %d",
						i, off, end, n, cost, mr.ID(), ocost, omr.ID())
				}
			}
			if rc.indexed && (len(rc.keys) != len(rc.entries) || !slices.IsSorted(rc.keys)) {
				t.Fatalf("op %d: address index holds %d keys (sorted %v) for %d entries",
					i, len(rc.keys), slices.IsSorted(rc.keys), len(rc.entries))
			}
		}
		if rc.Hits() != oracle.Hits() || rc.Misses() != oracle.Misses() {
			t.Fatalf("hits/misses %d/%d, the oracle's %d/%d", rc.Hits(), rc.Misses(), oracle.Hits(), oracle.Misses())
		}
		runtime.KeepAlive(seen)
	})
}

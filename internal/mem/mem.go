// Package mem provides the host-memory management pieces of the MPI
// implementation: the pool of pre-pinned communication buffers used by the
// eager protocol, the pin-down cache that amortizes memory
// registration cost for the rendezvous protocol (Tezuka et al., IPPS'98,
// as cited by the paper), and the per-rank allocator behind
// MPI_Alloc_mem / MPI_Free_mem. A communication buffer's registration
// identity is its allocation: allocating it starts it, freeing it ends it
// (Blocks, RegCache.Invalidate), so recycled bytes register exactly as
// fresh ones would.
package mem

import (
	"math/bits"
	"slices"
	"unsafe"

	"ibflow/internal/ib"
	"ibflow/internal/sim"
)

// slabBufs is the most full-size buffers a pool carves out of one backing
// slab allocation, and what Warm provisions up front: at that size growth
// costs one allocation per slabBufs cache misses instead of one per buffer.
const slabBufs = 64

// slabStep sets how a pool that nobody warmed follows its demand: its
// first slab holds slabStep buffers of the first class asked for, and
// each next one a 1/slabStep of the bytes carved so far, at least
// slabStep and at most slabBufs full-size buffers' worth. What a pool
// holds is therefore what it carved plus a quarter at most — where a
// fixed slab held 64 buffers for a demand of 3 — and the end of a slab
// too short for the next class asked for; growing allocates less than
// once per slabStep full-size carves at worst, once per slabBufs from 256
// of them on.
const slabStep = 4

// The smallest size class, minClass = 1<<minClassShift bytes, holds a
// header-only control packet.
const (
	minClassShift = 6
	minClass      = 1 << minClassShift
)

// freeSeed is how many buffers each class's free list holds before it
// first grows. The lists share one backing array made with the pool, so
// the first returns of every class allocate nothing where the pool is
// used; two cover a 2-rank ping-pong, and a deeper seed is bytes every
// device of a 1024-rank world pays at set-up, where each deep list grows
// past any seed anyway.
const freeSeed = 2

// freeList is one size class's free stack, last returned on top, and how
// many buffers of the class the pool has carved: the most the stack can
// ever hold, so a full stack grows straight to that (see Put).
type freeList struct {
	bufs   [][]byte
	carved int
}

// BufPool hands out pre-pinned buffers of up to BufSize bytes. The pool
// grows on demand (host memory is plentiful; the scarce resource the paper
// studies is the *pre-posted* buffers on each connection) and recycles
// returned buffers. A buffer's host bytes follow what it carries: its
// capacity is its size class — a power of two from minClass up, the
// largest class being BufSize itself — so a 48-byte control packet does
// not hold a BufSize buffer. What the paper accounts for, BufSize bytes
// per posted buffer, is the caller's to count. Growth is slab-based:
// buffers of every class are carved from one backing allocation at a
// time, sized by the demand seen so far (slabStep), and a returned buffer
// waits on its class's free list, which grows at most once per doubling
// of what the class has carved.
type BufPool struct {
	size     int
	free     []freeList // by class: returned buffers of that capacity
	slab     []byte     // remainder of the current growth slab
	carved   int        // bytes ever carved
	alloc    int        // total buffers ever carved
	out      int        // currently checked out
	maxOut   int
	recycled int // Gets served from a free list instead of a carve
	dbg      poolDebug
}

// NewBufPool creates a pool of buffers of up to bufSize bytes, with every
// class's free list seeded.
func NewBufPool(bufSize int) *BufPool {
	if bufSize <= 0 {
		panic("mem: non-positive buffer size")
	}
	classes := 1
	for minClass<<(classes-1) < bufSize {
		classes++
	}
	p := &BufPool{size: bufSize, free: make([]freeList, classes)}
	seed := make([][]byte, classes*freeSeed)
	for c := range p.free {
		p.free[c].bufs = seed[c*freeSeed : c*freeSeed : (c+1)*freeSeed]
	}
	return p
}

// BufSize returns the largest buffer the pool hands out.
func (p *BufPool) BufSize() int { return p.size }

// class returns the size class of an n-byte buffer, 0 <= n <= BufSize.
func (p *BufPool) class(n int) int {
	if n <= minClass {
		return 0
	}
	return min(bits.Len(uint(n-1))-minClassShift, len(p.free)-1)
}

// classCap is the capacity of class c's buffers.
func (p *BufPool) classCap(c int) int { return min(minClass<<c, p.size) }

// Get returns a buffer of BufSize bytes.
func (p *BufPool) Get() []byte { return p.GetN(p.size) }

// GetN returns an n-byte buffer, 0 <= n <= BufSize, whose capacity is n's
// class.
func (p *BufPool) GetN(n int) []byte {
	if n < 0 || n > p.size {
		panic("mem: buffer length outside the pool's 0..BufSize")
	}
	c := p.class(n)
	fl := &p.free[c]
	var b []byte
	if l := fl.bufs; len(l) > 0 {
		b = l[len(l)-1]
		l[len(l)-1] = nil
		fl.bufs = l[:len(l)-1]
		p.recycled++
	} else {
		sz := p.classCap(c)
		if len(p.slab) < sz {
			bytes := sz * slabStep // the first slab: slabStep buffers of this class
			if p.carved > 0 {
				bytes = p.size * min(slabBufs, max(slabStep, p.carved/(p.size*slabStep)))
			}
			//fclint:allow hotalloc a slab refill, paid once per slab of buffers, which are then recycled without allocating
			p.slab = make([]byte, bytes)
		}
		b = p.slab[:sz:sz]
		p.slab = p.slab[sz:]
		p.carved += sz
		p.alloc++
		fl.carved++
		p.debugCarve(b)
	}
	p.out++
	if p.out > p.maxOut {
		p.maxOut = p.out
	}
	p.debugGet(b)
	return b[:n]
}

// Warm allocates a full first slab if nothing was ever carved, and carves
// no buffer from it. Receive posts are descriptors that take their buffer
// only when a message lands (ib.RecvSource), so a pool's first
// allocations would otherwise fall on its first messages; whoever
// provisions receives ahead of traffic calls Warm to keep them a
// provisioning cost. A pool nobody warms starts small and follows its
// demand (slabStep).
func (p *BufPool) Warm() {
	if p.alloc == 0 && p.slab == nil {
		p.slab = make([]byte, p.size*slabBufs)
	}
}

// Put returns a buffer GetN handed out — any reslicing of it from its
// first byte: it is filed by its capacity, its class's.
func (p *BufPool) Put(b []byte) {
	n := cap(b)
	c := p.class(n)
	if p.classCap(c) != n {
		panic("mem: foreign buffer returned to pool")
	}
	b = b[:n]
	p.debugPut(b)
	p.out--
	if p.out < 0 {
		panic("mem: more buffers returned than taken")
	}
	fl := &p.free[c]
	if n := len(fl.bufs); n == cap(fl.bufs) {
		// The stack never holds more than its class carved, so it grows
		// straight to that, and at least to double, so a class whose
		// carves trickle in between full returns still grows only once
		// per doubling.
		fl.bufs = append(make([][]byte, 0, max(fl.carved, 2*n)), fl.bufs...)
	}
	fl.bufs = append(fl.bufs, b)
}

// Outstanding reports buffers currently checked out.
func (p *BufPool) Outstanding() int { return p.out }

// MaxOutstanding reports the checkout high-water mark.
func (p *BufPool) MaxOutstanding() int { return p.maxOut }

// Allocated reports how many buffers, of every class, were ever created.
func (p *BufPool) Allocated() int { return p.alloc }

// Recycled reports how many Gets and GetNs were served by recycling a
// freed buffer rather than carving a new one.
func (p *BufPool) Recycled() int { return p.recycled }

// Blocks is a rank's allocator of communication buffers (MPI_Alloc_mem):
// a block of n bytes is handed out from the free list of blocks of exactly
// n bytes, the one freed last first, or made fresh, and comes back zeroed
// either way — its contents are those of a make. Whoever frees a block
// ends its registrations first (RegCache.Invalidate), so a recycled block
// is, to the pin-down cache, a buffer it has never seen. The zero value is
// ready to use.
type Blocks struct {
	lists map[int][][]byte // block length -> freed blocks, last freed on top
}

// Get returns n zeroed bytes, nil for n <= 0.
func (b *Blocks) Get(n int) []byte {
	if n <= 0 {
		return nil
	}
	l := b.lists[n]
	if len(l) == 0 {
		return make([]byte, n)
	}
	blk := l[len(l)-1]
	l[len(l)-1] = nil
	b.lists[n] = l[:len(l)-1]
	clear(blk)
	return blk
}

// Put frees a block Get handed out (any reslicing of it from its first
// byte: the block is its whole capacity).
func (b *Blocks) Put(blk []byte) {
	n := cap(blk)
	if n == 0 {
		return
	}
	if b.lists == nil {
		b.lists = make(map[int][][]byte)
	}
	b.lists[n] = append(b.lists[n], blk[:n])
}

// Overlaps reports whether b shares a byte with the block blk: blk's
// whole capacity, b's length.
func Overlaps(blk, b []byte) bool {
	if cap(blk) == 0 || len(b) == 0 {
		return false
	}
	lo, p := addr(&blk[:1][0]), addr(&b[0])
	return p < lo+uintptr(cap(blk)) && lo < p+uintptr(len(b))
}

// addr is a byte's address as a number. Go's heap never moves an object,
// and a buffer the cache keys or a rank frees has escaped to the heap, so
// the number is stable for as long as the byte is referenced.
func addr(p *byte) uintptr { return uintptr(unsafe.Pointer(p)) }

// RegCache is a pin-down cache: it registers user buffers on first use and
// keeps the registration so repeated rendezvous transfers from or into the
// same buffer pay the pinning cost only once — until the memory is freed,
// which ends every registration inside it (Invalidate).
type RegCache struct {
	hca     *ib.HCA
	entries map[*byte]*ib.MR
	// keys holds the entries' keys in address order, Invalidate's index.
	// The first Invalidate builds it and every miss keeps it from then on,
	// so a cache whose memory is never freed pays nothing for it.
	keys    []uintptr
	indexed bool
	hits    uint64
	misses  uint64
}

// NewRegCache creates a cache registering through hca.
func NewRegCache(hca *ib.HCA) *RegCache {
	return &RegCache{hca: hca, entries: make(map[*byte]*ib.MR)}
}

// Register returns a memory region covering buf and the registration cost
// to charge to the virtual clock (zero on a cache hit). Buffers are keyed
// by their first byte's address; a cached region is reused only if it still
// covers the requested length.
func (c *RegCache) Register(buf []byte) (*ib.MR, sim.Time) {
	if len(buf) == 0 {
		panic("mem: registering empty buffer")
	}
	key := &buf[0]
	mr, ok := c.entries[key]
	if ok && mr.Len() >= len(buf) {
		c.hits++
		return mr, 0
	}
	c.misses++
	if !ok && c.indexed {
		i, _ := slices.BinarySearch(c.keys, addr(key))
		c.keys = slices.Insert(c.keys, i, addr(key))
	}
	mr = c.hca.RegisterMemory(buf)
	c.entries[key] = mr
	return mr, ib.RegTime(len(buf))
}

// Invalidate ends every registration keyed inside the block blk — its
// whole capacity, first byte to last — as a pin-down cache does when the
// memory is freed: each region is deregistered and its entry dropped, so a
// buffer later carved from the same bytes misses exactly where a fresh
// allocation would. Nothing may still be moving through those regions.
func (c *RegCache) Invalidate(blk []byte) {
	if cap(blk) == 0 {
		return
	}
	if !c.indexed {
		//fclint:allow simmapiter the first index build: the keys are sorted on the next line, and addr is a pure conversion
		for key := range c.entries {
			c.keys = append(c.keys, addr(key))
		}
		slices.Sort(c.keys)
		c.indexed = true
	}
	whole := blk[:cap(blk)]
	lo := addr(&whole[0])
	i, _ := slices.BinarySearch(c.keys, lo)
	j := i
	for j < len(c.keys) && c.keys[j]-lo < uintptr(len(whole)) {
		key := &whole[c.keys[j]-lo]
		c.hca.DeregisterMemory(c.entries[key])
		delete(c.entries, key)
		j++
	}
	c.keys = slices.Delete(c.keys, i, j)
}

// Hits reports cache hits.
func (c *RegCache) Hits() uint64 { return c.hits }

// Misses reports cache misses (actual registrations).
func (c *RegCache) Misses() uint64 { return c.misses }

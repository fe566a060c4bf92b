// Package mem provides the host-memory management pieces of the MPI
// implementation: the pool of pre-pinned, fixed-size communication buffers
// used by the eager protocol, the pin-down cache that amortizes memory
// registration cost for the rendezvous protocol (Tezuka et al., IPPS'98,
// as cited by the paper), and the per-rank allocator behind
// MPI_Alloc_mem / MPI_Free_mem. A communication buffer's registration
// identity is its allocation: allocating it starts it, freeing it ends it
// (Blocks, RegCache.Invalidate), so recycled bytes register exactly as
// fresh ones would.
package mem

import (
	"slices"
	"unsafe"

	"ibflow/internal/ib"
	"ibflow/internal/sim"
)

// slabBufs is the most buffers a pool carves out of one backing slab
// allocation, and what Warm provisions up front: at that size growth costs
// one allocation per slabBufs cache misses instead of one per buffer.
const slabBufs = 64

// slabStep sets how a pool that nobody warmed follows its demand: the
// next slab holds a 1/slabStep of the buffers carved so far, at least
// slabStep and at most slabBufs of them. A pool whose demand peaks at k
// buffers therefore holds at most k + max(slabStep, k/slabStep) of them —
// a quarter over, where a fixed slab held 64 for a demand of 3 — and
// growing still allocates less than once per slabStep carves at worst,
// once per slabBufs from 256 buffers on.
const slabStep = 4

// BufPool hands out fixed-size pre-pinned buffers. The pool grows on
// demand (host memory is plentiful; the scarce resource the paper studies
// is the *pre-posted* buffers on each connection) and recycles returned
// buffers. Growth is slab-based: buffers are carved in batches from a
// single backing allocation sized by the demand seen so far (slabStep).
type BufPool struct {
	size     int
	free     [][]byte
	slab     []byte // remainder of the current growth slab
	alloc    int    // total buffers ever carved
	out      int    // currently checked out
	maxOut   int
	recycled int // Gets served from the freelist instead of a carve
	dbg      poolDebug
}

// NewBufPool creates a pool of bufSize-byte buffers.
func NewBufPool(bufSize int) *BufPool {
	if bufSize <= 0 {
		panic("mem: non-positive buffer size")
	}
	return &BufPool{size: bufSize}
}

// BufSize returns the fixed buffer size.
func (p *BufPool) BufSize() int { return p.size }

// Get returns a buffer of the pool's fixed size.
func (p *BufPool) Get() []byte {
	var b []byte
	if n := len(p.free); n > 0 {
		b = p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		p.recycled++
	} else {
		if len(p.slab) < p.size {
			p.slab = make([]byte, p.size*min(slabBufs, max(slabStep, p.alloc/slabStep)))
		}
		b = p.slab[:p.size:p.size]
		p.slab = p.slab[p.size:]
		p.alloc++
		p.debugCarve(b)
	}
	p.out++
	if p.out > p.maxOut {
		p.maxOut = p.out
	}
	p.debugGet(b)
	return b
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

// Put returns a buffer to the pool.
func (p *BufPool) Put(b []byte) {
	if len(b) != p.size {
		panic("mem: foreign buffer returned to pool")
	}
	p.debugPut(b)
	p.out--
	if p.out < 0 {
		panic("mem: more buffers returned than taken")
	}
	p.free = append(p.free, b)
}

// Outstanding reports buffers currently checked out.
func (p *BufPool) Outstanding() int { return p.out }

// MaxOutstanding reports the checkout high-water mark.
func (p *BufPool) MaxOutstanding() int { return p.maxOut }

// Allocated reports how many buffers were ever created.
func (p *BufPool) Allocated() int { return p.alloc }

// Recycled reports how many Gets were served by recycling a freed buffer
// rather than carving a new one.
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

package store

const (
	// chunkMin and chunkMax bound how many objects a pool carves from one
	// backing allocation; between them the next chunk is as large as
	// everything carved so far, so a pool doubles: 4, 4, 8, 16, 32, 64,
	// 64, ... It is mem.BufPool's law — the next slab follows what has
	// been carved — with the whole in place of a quarter: the objects here
	// are a hundred bytes where a buffer is 2 KB, so overshooting a small
	// demand by its own size costs a few hundred bytes, and reaching 64 in
	// six refills instead of eighteen is what keeps a world of many small
	// adapters under one refill per 25 objects. An owner that needs a
	// handful pays for four or eight, one that needs thousands allocates
	// once per 64 — and never per object.
	chunkMin = 4
	chunkMax = 64
)

// Pool hands out *T carved from chunked []T backing and, for an owner that
// returns them, recycles them: the one recycler behind every object a
// message needs on its way — the engine's events, an adapter's send WQEs,
// the fabric's trunk hops and pending completions, the world's requests,
// the device's rendezvous state — and behind registration handles (ib.MR,
// returned at deregistration). The zero value is ready to use; a pool in
// use points into itself and must not be copied. Get's object is zeroed. Put does not touch it — the
// owner drops the references it holds and may leave the scalars readable,
// as a released mpi.Request keeps its status — and an object handed out
// again is zeroed then. Under the ibdebug build tag the pool knows every
// object it carved, whether it is out or pooled and how many times it has
// been recycled (its generation), so a stale reference is caught where it
// is used: a double Put, a foreign Put and Live on a pooled object fail at
// once instead of aliasing the next owner's state.
type Pool[T any] struct {
	dbg   poolDebug[T] // empty without the ibdebug tag (not last: a trailing empty field is padded)
	chunk []T          // rest of the current chunk
	free  []*T         // returned objects, reused last in first out
	made  int          // objects in every chunk made so far: sizes the next chunk
	free0 [chunkMin]*T // the free stack's first backing: a pool of a handful never allocates one
}

// Get returns a zeroed object: the one most recently Put, or the next of
// the current chunk. It fits the compiler's inlining budget — exactly, in
// the release build — so the free-stack pop costs its callers no call (the
// engine's event allocation among them). That is why the popped slot is
// left as it is (every object the stack ever held belongs to one of the
// pool's chunks anyway) and why the ibdebug hooks sit behind a constant
// the release build folds away.
func (p *Pool[T]) Get() *T {
	if n := len(p.free); n > 0 {
		v := p.free[n-1]
		p.free = p.free[:n-1]
		if tracking {
			p.dbg.reuse(v)
		}
		var zero T
		*v = zero
		return v
	}
	if len(p.chunk) == 0 {
		p.chunk = make([]T, min(chunkMax, max(chunkMin, p.made)))
		p.made += len(p.chunk)
	}
	v := &p.chunk[0]
	p.chunk = p.chunk[1:]
	if tracking {
		p.dbg.carve(v)
	}
	return v
}

// Put returns v, which Get handed out and nothing references any more,
// for reuse.
func (p *Pool[T]) Put(v *T) {
	p.dbg.put(v)
	if n := len(p.free); n == cap(p.free) {
		// The stack never holds more than was carved, so growing it to
		// that costs at most one allocation per chunk — not one per
		// doubling on top of the chunks.
		if n == 0 {
			p.free = p.free0[:0]
		} else {
			p.free = append(make([]*T, 0, p.Carved()), p.free...)
		}
	}
	p.free = append(p.free, v)
}

// Carved reports how many distinct objects the pool has ever made.
func (p *Pool[T]) Carved() int { return p.made - len(p.chunk) }

//go:build ibdebug

package store

import "fmt"

// Under the ibdebug build tag a pool tracks every object it carved by
// address — the scheme of mem.BufPool's debug state — so recycling
// cannot hide a stale reference: the release build compiles every hook to
// nothing and Live to true.

// tracking tells the package's tests that Get allocates map entries.
const tracking = true

// objState is what the pool knows of one carved object.
type objState struct {
	gen    uint64 // times recycled: bumped by Put
	pooled bool   // on the free stack
}

type poolDebug[T any] struct {
	objs map[*T]objState
}

func (d *poolDebug[T]) carve(v *T) {
	if d.objs == nil {
		d.objs = make(map[*T]objState)
	}
	d.objs[v] = objState{}
}

func (d *poolDebug[T]) put(v *T) {
	st, ok := d.objs[v]
	if !ok {
		panic(fmt.Sprintf("store: %T returned to a pool that never carved it", v))
	}
	if st.pooled {
		panic(fmt.Sprintf("store: double Put of a %T (generation %d)", v, st.gen))
	}
	d.objs[v] = objState{gen: st.gen + 1, pooled: true}
}

func (d *poolDebug[T]) reuse(v *T) {
	st := d.objs[v]
	if !st.pooled {
		panic(fmt.Sprintf("store: free stack holds a %T that is checked out (generation %d)", v, st.gen))
	}
	st.pooled = false
	d.objs[v] = st
}

// Live reports whether v is an object of this pool that is checked out:
// what every holder of a *T may assume, and what a reference kept past
// Put violates.
func (p *Pool[T]) Live(v *T) bool {
	st, ok := p.dbg.objs[v]
	return ok && !st.pooled
}

// Gen reports v's generation: how many times it has been returned. An
// object's generation while checked out is the one it was handed out with.
func (p *Pool[T]) Gen(v *T) uint64 { return p.dbg.objs[v].gen }

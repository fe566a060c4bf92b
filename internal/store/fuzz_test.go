package store

import "testing"

// The fuzz targets drive Pool and Fifo with an op per input byte against
// reference models kept deliberately naive — a map of what is out, a plain
// slice queue — so a disagreement is the recycled storage's fault. Their
// seed corpora (testdata/fuzz) replay under plain `go test`.

// FuzzPool: the low bit of a byte picks Get or Put, the rest which of the
// objects out goes back. The model is a set of what is out and a stack of
// what came back: no object is ever out twice, Get's object is zeroed and
// is the one most recently returned — a new one only when none is — Put
// leaves the scalars readable, and Carved counts the distinct objects
// seen, never down.
func FuzzPool(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		var p Pool[box]
		var out, free []*box
		held, seen := map[*box]bool{}, map[*box]bool{}
		get := func(i int) {
			v := p.Get()
			if held[v] {
				t.Fatalf("op %d: Get handed out an object that is still out", i)
			}
			if *v != (box{}) {
				t.Fatalf("op %d: Get's object is not zeroed: %+v", i, *v)
			}
			if n := len(free); n > 0 {
				if v != free[n-1] {
					t.Fatalf("op %d: Get did not reuse the object most recently returned", i)
				}
				free = free[:n-1]
			} else if seen[v] {
				t.Fatalf("op %d: nothing was free, and Get handed out an object seen before", i)
			}
			v.id, v.ref = i+1, &i
			out, held[v], seen[v] = append(out, v), true, true
		}
		for i, op := range ops {
			carved := p.Carved()
			if op&1 == 0 || len(out) == 0 {
				get(i)
			} else {
				k := int(op>>1) % len(out)
				v := out[k]
				out = append(out[:k], out[k+1:]...)
				delete(held, v)
				id := v.id
				v.ref = nil
				p.Put(v)
				if v.id != id {
					t.Fatalf("op %d: Put touched the object: id %d, was %d", i, v.id, id)
				}
				free = append(free, v)
			}
			if c := p.Carved(); c < carved || c != len(seen) {
				t.Fatalf("op %d: Carved = %d after %d, with %d distinct objects seen", i, c, carved, len(seen))
			}
		}
		for i := len(ops); len(free) > 0; i++ { // everything returned comes back out, once
			get(i)
		}
	})
}

// FuzzFifo: the low two bits of a byte pick Pop (one value in four) or
// Push. Order is first in first out across every growth, wrap and shrink
// of the ring — the script's tail drains it through shrinkSettle — Len
// and At agree with the model, and the ring never shrinks below its floor
// or under what it holds.
func FuzzFifo(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 3})
	f.Fuzz(func(t *testing.T, ops []byte) {
		var q Fifo[int]
		var model []int
		next := 0
		pop := func(i int) {
			if got := q.Pop(); got != model[0] {
				t.Fatalf("op %d: Pop = %d, want %d", i, got, model[0])
			}
			model = model[1:]
		}
		check := func(i int) {
			if q.Len() != len(model) {
				t.Fatalf("op %d: Len = %d, want %d", i, q.Len(), len(model))
			}
			if c := q.Cap(); c < len(model) || c&(c-1) != 0 || (c != 0 && c < fifoMinCap) {
				t.Fatalf("op %d: ring of %d slots holds %d entries", i, c, len(model))
			}
			for _, k := range []int{0, len(model) / 2, len(model) - 1} {
				if k >= 0 && k < len(model) && *q.At(k) != model[k] {
					t.Fatalf("op %d: At(%d) = %d, want %d", i, k, *q.At(k), model[k])
				}
			}
		}
		for i, op := range ops {
			if op&3 == 3 && len(model) > 0 {
				pop(i)
			} else {
				// A byte's high bits make a burst, so a short script still
				// grows the ring well past its floor.
				for n := 1 + int(op>>2); n > 0; n-- {
					q.Push(next)
					model = append(model, next)
					next++
				}
			}
			check(i)
		}
		grown := q.Cap()
		for i := 0; len(model) > 0; i++ {
			pop(len(ops) + i)
			check(len(ops) + i)
		}
		// A trickle at occupancy one returns a burst's ring to the floor.
		for i := 0; i < shrinkSettle*64 && q.Cap() > fifoMinCap; i++ {
			q.Push(next)
			model = append(model, next)
			next++
			pop(-1)
		}
		if q.Cap() > fifoMinCap {
			t.Fatalf("ring stuck at %d slots after a sustained trickle (the script grew it to %d)", q.Cap(), grown)
		}
	})
}

package ib

import (
	"bytes"
	"testing"
	"unsafe"

	"ibflow/internal/sim"
)

// FuzzRecvQueue drives a QP's private receive queue and an SRQ with an op
// per input byte against a plain slice FIFO of descriptors, the reference
// the run-length queue must be indistinguishable from. A byte's bit 0
// picks the queue; bits 1–2 pick PostRecv (its own buffer), PostRecvFrom
// (two values in four) or a take; bits 3–4 the wrid, bit 5 which of two
// sources, and bits 6–7 a burst of 1, 2, 4 or 8 posts, so a short script
// still builds deep runs. Every take must return the reference's head —
// wrid, source and buffer identity — posted() must equal the reference's
// length, the SRQ's counters must count what went in and out, and the
// queue must hold exactly one run per change of (wrid, source) among the
// descriptors posted: what it costs follows the posts' variety, not their
// number.
func FuzzRecvQueue(f *testing.F) {
	f.Add([]byte{0xc2, 0x06, 0xc3, 0x07, 0x16, 0x0e, 0x26, 0x06, 0x17, 0x06})
	f.Fuzz(func(t *testing.T, ops []byte) {
		eng := sim.NewEngine()
		h := NewFabric(eng, DefaultConfig(), 1).HCA(0)
		cq := h.NewCQ()
		qp, srq := h.NewQP(cq, cq), h.NewSRQ()
		srcs := [2]RecvSource{&countingSource{size: 8}, &countingSource{size: 16}}
		type side struct {
			name     string
			postRecv func(recvWQE)
			postFrom func(uint64, RecvSource)
			take     func() (recvWQE, bool)
			posted   func() int
			q        *recvQueue
			ref      []recvWQE
		}
		sides := [2]*side{
			{name: "QP", postRecv: qp.postRecv, postFrom: qp.PostRecvFrom, take: qp.takeRecv, posted: qp.PostedRecvs, q: &qp.rq},
			{name: "SRQ", postRecv: srq.postRecv, postFrom: srq.PostRecvFrom, take: srq.take, posted: srq.posted, q: &srq.q},
		}
		var posted, taken uint64 // the SRQ's, as the reference counts them
		take := func(i int, s *side) {
			got, ok := s.take()
			if !ok {
				t.Fatalf("op %d: %s take found nothing with %d posted", i, s.name, len(s.ref))
			}
			want := s.ref[0]
			s.ref = s.ref[1:]
			if got.wrid != want.wrid || got.src != want.src ||
				unsafe.SliceData(got.buf) != unsafe.SliceData(want.buf) || len(got.buf) != len(want.buf) {
				t.Fatalf("op %d: %s take = wrid %d src %p buf %p, want wrid %d src %p buf %p", i, s.name,
					got.wrid, got.src, unsafe.SliceData(got.buf), want.wrid, want.src, unsafe.SliceData(want.buf))
			}
			if s.name == "SRQ" {
				taken++
			}
		}
		check := func(i int, s *side) {
			if got := s.posted(); got != len(s.ref) {
				t.Fatalf("op %d: %s posted() = %d, the reference holds %d", i, s.name, got, len(s.ref))
			}
			runs := 0
			for k, w := range s.ref {
				if k == 0 || w.src == nil || w.src != s.ref[k-1].src || w.wrid != s.ref[k-1].wrid {
					runs++
				}
			}
			if got := s.q.q.Len(); got != runs {
				t.Fatalf("op %d: %s queue holds %d runs for %d descriptors in %d runs", i, s.name, got, len(s.ref), runs)
			}
		}
		for i, op := range ops {
			s := sides[op&1]
			wrid, src := uint64(op>>3&3), srcs[op>>5&1]
			if kind := op >> 1 & 3; kind == 3 {
				if len(s.ref) > 0 {
					take(i, s)
				} else if _, ok := s.take(); ok {
					t.Fatalf("op %d: %s take on an empty queue succeeded", i, s.name)
				}
			} else {
				for n := 1 << (op >> 6); n > 0; n-- {
					w := recvWQE{wrid: wrid}
					if kind == 0 {
						w.buf = make([]byte, 1)
						s.postRecv(w)
					} else {
						w.src = src
						s.postFrom(wrid, src)
					}
					s.ref = append(s.ref, w)
					if s.name == "SRQ" {
						posted++
					}
				}
			}
			check(i, s)
			if st := srq.Stats(); st.PostedTotal != posted || st.Taken != taken {
				t.Fatalf("op %d: SRQ counted %d posted and %d taken, want %d and %d", i, st.PostedTotal, st.Taken, posted, taken)
			}
		}
		for _, s := range sides { // what is left comes out in order
			for i := len(ops); len(s.ref) > 0; i++ {
				take(i, s)
				check(i, s)
			}
		}
	})
}

// FuzzMRWindow runs a script of windows on a reserved region against a
// flat byte array, the reference the region's committed extents must be
// indistinguishable from. The first two bytes pick the geometry: a
// granule of 1–256 bytes, 1–6 granules (one commits the region whole),
// and a tail granule up to a granule short; a second byte of 252 or more
// scales the granule, and every window's offset and length, by 64, so an
// extent can reach a commit page and take a page of its own. Every four
// bytes after are a window: bit 0 of the first picks a write or a read,
// the other three the granule, the offset in it and the length. Every
// read must equal the reference, zeroes where nothing was written; the
// window must lie in the extent its granule's record resolves to, ending
// where the extent ends; each granule's extent must be its farthest reach
// rounded up to 64 B and capped at the granule, and Committed the sum of
// the records' lengths; no extent may share a byte with another
// granule's or have room to grow into one; and a window that re-commits
// a granule must leave the old extent, which a consumer may still hold,
// reading poison. A closing read of every granule must equal the
// reference.
func FuzzMRWindow(f *testing.F) {
	f.Add([]byte{199, 3, 0, 0, 0, 9, 0, 0, 100, 49, 1, 0, 0, 199, 1, 3, 5, 0})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) < 2 {
			return
		}
		unit := 1
		if script[1] >= 252 {
			unit = 64
		}
		granule, count := unit*(1+int(script[0])), 1+int(script[1])%6
		n := count * granule
		if count > 1 {
			n -= int(script[1]/6) % granule
		}
		m := NewFabric(sim.NewEngine(), DefaultConfig(), 1).HCA(0).ReserveMemory(n, granule)
		ref := make([]byte, n)
		reach := make([]int, count) // farthest byte a window reached, per granule
		glen := func(i int) int { return min(granule, n-i*granule) }
		extent := func(i int) []byte {
			if count == 1 {
				return m.buf
			}
			if m.table == 0 {
				return nil
			}
			return m.hca.fabric.bytes(*m.entry(i))
		}
		check := func(k int) {
			want := 0
			for i, r := range reach {
				e := extent(i)
				if w := min((r+63)/64*64, glen(i)); len(e) != w || cap(e) != w {
					t.Fatalf("op %d: granule %d extent has len %d cap %d after a reach of %d, want %d", k, i, len(e), cap(e), r, w)
				}
				want += len(e)
				for j := range i {
					o := extent(j)
					if len(e) == 0 || len(o) == 0 {
						continue
					}
					p, q := uintptr(unsafe.Pointer(&e[0])), uintptr(unsafe.Pointer(&o[0]))
					if p < q+uintptr(len(o)) && q < p+uintptr(len(e)) {
						t.Fatalf("op %d: granules %d and %d share host bytes", k, i, j)
					}
				}
			}
			if got := m.Committed(); got != want {
				t.Fatalf("op %d: Committed() = %d, the records' extents sum to %d", k, got, want)
			}
		}
		k := 0
		for ops := script[2:]; len(ops) >= 4; ops = ops[4:] {
			i := int(ops[1]) % count
			base, gl := i*granule, glen(i)
			off := unit * int(ops[2]) % gl
			ln := 1 + unit*int(ops[3])%(gl-off)
			old := extent(i)
			w := m.Window(base+off, ln)
			if e := extent(i); len(e) < off+ln || &e[off] != &w[0] || cap(w) != len(e)-off {
				t.Fatalf("op %d: window [%d,%d) is not where granule %d's record resolves to (extent of %d bytes)", k, base+off, base+off+ln, i, len(e))
			}
			if ops[0]&1 == 0 {
				for j := range w {
					w[j] = byte(k + j + 1)
				}
				copy(ref[base+off:], w)
			} else if !bytes.Equal(w, ref[base+off:base+off+ln]) {
				t.Fatalf("op %d: window [%d,%d) reads %v, the reference %v", k, base+off, base+off+ln, w, ref[base+off:base+off+ln])
			}
			reach[i] = max(reach[i], off+ln)
			if e := extent(i); len(old) > 0 && &e[0] != &old[0] && !bytes.Equal(old, bytes.Repeat([]byte{poison}, len(old))) {
				t.Fatalf("op %d: granule %d re-committed, but its old extent reads %v, not poison", k, i, old)
			}
			check(k)
			k++
		}
		for i := range count {
			if got, want := m.Window(i*granule, glen(i)), ref[i*granule:i*granule+glen(i)]; !bytes.Equal(got, want) {
				t.Fatalf("granule %d reads %v at the end, the reference %v", i, got, want)
			}
			reach[i] = glen(i)
		}
		check(k)
	})
}

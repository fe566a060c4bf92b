package ib

import (
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
			postRecv func(uint64, []byte)
			postFrom func(uint64, RecvSource)
			prov     recvProvisioner
			q        *recvQueue
			ref      []recvWQE
		}
		sides := [2]*side{
			{name: "QP", postRecv: qp.PostRecv, postFrom: qp.PostRecvFrom, prov: qp.recv, q: &qp.rq},
			{name: "SRQ", postRecv: srq.PostRecv, postFrom: srq.PostRecvFrom, prov: srq, q: &srq.q},
		}
		var posted, taken uint64 // the SRQ's, as the reference counts them
		take := func(i int, s *side) {
			got, ok := s.prov.take()
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
			if got := s.prov.posted(); got != len(s.ref) {
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
				} else if _, ok := s.prov.take(); ok {
					t.Fatalf("op %d: %s take on an empty queue succeeded", i, s.name)
				}
			} else {
				for n := 1 << (op >> 6); n > 0; n-- {
					w := recvWQE{wrid: wrid}
					if kind == 0 {
						w.buf = make([]byte, 1)
						s.postRecv(wrid, w.buf)
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

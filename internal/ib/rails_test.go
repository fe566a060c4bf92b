package ib

import (
	"testing"

	"ibflow/internal/sim"
)

// TestPortSingleRailMatchesLink pins the compatibility contract: with one
// rail (Rails 0 or 1) every port is a single link and every path books
// it, so every pre-rails timing and golden stays byte-identical.
func TestPortSingleRailMatchesLink(t *testing.T) {
	for _, rails := range []int{0, 1} {
		cfg := DefaultConfig()
		cfg.Rails = rails
		f := NewFabric(sim.NewEngine(), cfg, 2)
		if len(f.HCA(0).egress) != 1 || len(f.HCA(1).ingress) != 1 {
			t.Fatalf("rails=%d: ports of %d/%d links, want 1", rails, len(f.HCA(0).egress), len(f.HCA(1).ingress))
		}
		for i := 0; i < 3; i++ {
			a, b := f.HCA(0).NewQP(f.HCA(0).NewCQ(), f.HCA(0).NewCQ()), f.HCA(1).NewQP(f.HCA(1).NewCQ(), f.HCA(1).NewCQ())
			Connect(a, b)
			if a.rail != 0 || b.rail != 0 {
				t.Fatalf("rails=%d connection %d: rails %d/%d, want 0", rails, i, a.rail, b.rail)
			}
		}
	}
}

// TestConnectionKeepsItsRail pins the path rule on a 2-rail port. A 16 KB
// RDMA write and the 0-byte send posted behind it on one QP arrive in
// posting order and are both accepted: a per-packet rail choice would put
// the send on the idle rail, land it first, and the receiver would drop
// it as out of order with nothing to resend it. And two connections
// between the same two adapters take different rails, so multi-rail
// bandwidth is still there, across QPs.
func TestConnectionKeepsItsRail(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Rails = 2
	eng := sim.NewEngine()
	f := NewFabric(eng, cfg, 2)
	cqa, cqb := f.HCA(0).NewCQ(), f.HCA(1).NewCQ()
	a, b := f.HCA(0).NewQP(cqa, cqa), f.HCA(1).NewQP(cqb, cqb)
	Connect(a, b)
	a2, b2 := f.HCA(0).NewQP(cqa, cqa), f.HCA(1).NewQP(cqb, cqb)
	Connect(a2, b2)
	if a.rail != b.rail || a2.rail != b2.rail {
		t.Fatalf("the two ends of a connection disagree on its rail: %d/%d, %d/%d", a.rail, b.rail, a2.rail, b2.rail)
	}
	if a.rail == a2.rail {
		t.Fatalf("two connections between the same adapters share rail %d", a.rail)
	}

	mr := f.HCA(1).RegisterMemory(make([]byte, 16<<10))
	b.PostRecv(7, make([]byte, 64))
	a.PostWriteNotify(1, make([]byte, 16<<10), RemoteKey{MR: mr}, 99)
	a.PostSend(2, nil)
	if err := eng.Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}
	var got []Opcode
	for {
		wc, ok := cqb.Poll()
		if !ok {
			break
		}
		got = append(got, wc.Opcode)
	}
	if len(got) != 2 || got[0] != OpRecvImm || got[1] != OpRecvComplete {
		t.Fatalf("receiver saw %v, want [%v %v] (the write, then the send behind it)", got, OpRecvImm, OpRecvComplete)
	}
	if st := a.Stats(); b.Stats().Delivered != 2 || st.WastedBytes != 0 || st.Retransmits != 0 {
		t.Fatalf("delivered %d, wasted %d B, %d retransmits: want 2 accepted and nothing dropped",
			b.Stats().Delivered, st.WastedBytes, st.Retransmits)
	}
}

// TestMultiRailRelievesIngressContention runs the converging-senders
// shape end to end: two senders blasting one receiver serialize on a
// single-rail ingress port but land concurrently with Rails=2, so the
// second message completes strictly earlier.
func TestMultiRailRelievesIngressContention(t *testing.T) {
	finish := func(rails int) sim.Time {
		cfg := DefaultConfig()
		cfg.Rails = rails
		eng := sim.NewEngine()
		f := NewFabric(eng, cfg, 3)
		cqr := f.HCA(2).NewCQ()
		var senders []*QP
		for n := 0; n < 2; n++ {
			cqs := f.HCA(n).NewCQ()
			qs := f.HCA(n).NewQP(cqs, cqs)
			qr := f.HCA(2).NewQP(cqr, cqr)
			Connect(qs, qr)
			qr.PostRecv(uint64(n), make([]byte, 4096))
			senders = append(senders, qs)
		}
		var last sim.Time
		rx := newCQWaiter(eng, cqr)
		eng.Go("rx", func(p *sim.Proc) {
			for got := 0; got < 2; {
				rx.wait(p)
				for {
					wc, ok := cqr.Poll()
					if !ok {
						break
					}
					if wc.Opcode == OpRecvComplete {
						got++
					}
				}
				last = p.Now()
			}
		})
		for _, qs := range senders {
			qs.PostSend(1, make([]byte, 4096))
		}
		if err := eng.Run(sim.MaxTime); err != nil {
			t.Fatal(err)
		}
		return last
	}
	single, dual := finish(1), finish(2)
	if dual >= single {
		t.Errorf("dual-rail ingress finished at %v, want earlier than single-rail %v", dual, single)
	}
}

package chdev

import (
	"fmt"
	"testing"

	"ibflow/internal/core"
	"ibflow/internal/ib"
	"ibflow/internal/metrics"
	"ibflow/internal/sim"
)

// devPairEP builds two wired devices with an endpoint set per pair and a
// live metrics registry, so a double establishment (which would register
// duplicate series) panics instead of passing silently.
func devPairEP(t *testing.T, cfg Config, params core.Params) (*sim.Engine, *Device, *Device, *fakeHandler, *fakeHandler) {
	t.Helper()
	fc := ib.DefaultConfig()
	fc.Metrics = metrics.New()
	return devPairOn(t, fc, cfg, params)
}

// ownedQPs counts the QPs that name one of d's connections as their
// owner — what an arrival's completion is resolved through.
func ownedQPs(d *Device) int {
	seen := map[*ib.QP]bool{}
	for _, c := range d.live {
		if c.qp.Owner() == any(c) {
			seen[&c.qp] = true
		}
	}
	return len(seen)
}

// TestEndpointSetEstablish: wiring a pair with Endpoints=4 builds four
// independent QP/VC endpoints, all counted in Stats, with per-endpoint
// receive provisioning.
func TestEndpointSetEstablish(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Endpoints = 4
	_, d0, d1, _, _ := devPairEP(t, cfg, core.Static(4))
	for _, d := range []*Device{d0, d1} {
		st := d.Stats()
		if st.Conns != 4 {
			t.Fatalf("rank %d Stats.Conns = %d, want 4 endpoints", d.rank, st.Conns)
		}
		if n := ownedQPs(d); n != 4 {
			t.Fatalf("rank %d has %d QPs, want 4", d.rank, n)
		}
		if want := 4 * 4; st.SumPosted != want {
			t.Errorf("rank %d SumPosted = %d, want %d (4 endpoints x prepost 4)", d.rank, st.SumPosted, want)
		}
		seen := map[*ib.QP]bool{}
		for ep := 0; ep < 4; ep++ {
			c := d.epAt(1-d.rank, ep)
			if c == nil {
				t.Fatalf("rank %d endpoint %d missing", d.rank, ep)
			}
			if int(c.ep) != ep {
				t.Fatalf("rank %d endpoint %d self-index = %d", d.rank, ep, c.ep)
			}
			if seen[&c.qp] {
				t.Fatalf("rank %d endpoint %d shares a QP", d.rank, ep)
			}
			seen[&c.qp] = true
		}
	}
	// Endpoint i converses with the peer's endpoint i, not a shuffle.
	for ep := 0; ep < 4; ep++ {
		if d0.epAt(1, ep).qp.Peer() != &d1.epAt(0, ep).qp {
			t.Fatalf("endpoint %d cross-wired", ep)
		}
	}
}

// TestEndpointStickySelection: the sticky policy pins logical thread tid
// to endpoint tid mod Endpoints, so per-thread traffic stays on one
// endpoint (preserving per-thread ordering) and the set load-balances
// across threads.
func TestEndpointStickySelection(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Endpoints = 2
	eng, d0, d1, _, h1 := devPairEP(t, cfg, core.Static(8))
	eng.Go("sender", func(p *sim.Proc) {
		for tid := 0; tid < 4; tid++ {
			d0.BindThread(tid)
			d0.Send(p, 1, tid, 0, []byte{byte(tid)}, tid, true)
		}
		d0.WaitProgress(p, d0.Quiescent)
	})
	eng.Go("receiver", func(p *sim.Proc) {
		d1.WaitProgress(p, func() bool { return len(h1.eager) == 4 })
	})
	if err := eng.Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}
	st := d0.Stats()
	if st.StickySels != 4 {
		t.Fatalf("StickySels = %d, want 4", st.StickySels)
	}
	for ep := 0; ep < 2; ep++ {
		if got := d0.epAt(1, ep).vc.Stats().EagerSent; got != 2 {
			t.Errorf("endpoint %d carried %d eager sends, want 2 (tids %d and %d)", ep, got, ep, ep+2)
		}
	}
	if st.OccupancyHWM < 1 {
		t.Errorf("occupancy HWM = %d, want >= 1", st.OccupancyHWM)
	}
	if err := Audit([]*Device{d0, d1}); err != nil {
		t.Errorf("audit: %v", err)
	}
}

// TestEndpointSharedPoolConservation: many endpoints drawing receives
// from the one shared core.Pool keep the pooled conservation law — at
// quiescence nothing is in use and the SRQ's free count equals the
// pool's accounting, regardless of how many endpoints consumed from it.
func TestEndpointSharedPoolConservation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Endpoints = 4
	eng, d0, d1, _, h1 := devPairEP(t, cfg, core.Shared(8, 32))
	const perThread = 3
	eng.Go("sender", func(p *sim.Proc) {
		for tid := 0; tid < 4; tid++ {
			d0.BindThread(tid)
			for i := 0; i < perThread; i++ {
				d0.Send(p, 1, tid*perThread+i, 0, []byte{byte(tid), byte(i)}, nil, true)
			}
		}
		d0.WaitProgress(p, d0.Quiescent)
	})
	eng.Go("receiver", func(p *sim.Proc) {
		d1.WaitProgress(p, func() bool { return len(h1.eager) == 4*perThread })
	})
	if err := eng.Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}
	pp := d1.prov.(*poolProvisioner)
	if pp.pool.InUse() != 0 {
		t.Errorf("pool in use at quiescence: %d", pp.pool.InUse())
	}
	if got, want := pp.srq.PostedRecvs(), pp.pool.Posted(); got != want {
		t.Errorf("SRQ free = %d, pool accounting = %d", got, want)
	}
	if err := Audit([]*Device{d0, d1}); err != nil {
		t.Errorf("audit: %v", err)
	}
}

// TestEndpointRingScheme: each endpoint of a set owns its own RDMA-write
// ring; traffic multiplexed over two endpoints keeps every per-pair ring
// law (tail equality, head sync) endpoint-to-endpoint.
func TestEndpointRingScheme(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Endpoints = 2
	eng, d0, d1, _, h1 := devPairEP(t, cfg, core.RDMA(4, 1024))
	eng.Go("sender", func(p *sim.Proc) {
		for i := 0; i < 8; i++ {
			d0.BindThread(i % 2)
			d0.Send(p, 1, i, 0, []byte{byte(i)}, i, true)
		}
		// Detached, both devices keep draining until the rings are fully
		// credited back and the head-sync completions are polled: the
		// engine's empty queue hands the audit a settled pair.
		d0.WaitProgress(p, d0.Quiescent)
		d0.Detach()
	})
	eng.Go("receiver", func(p *sim.Proc) {
		d1.WaitProgress(p, func() bool { return len(h1.eager) == 8 && d1.Quiescent() })
		d1.Detach()
	})
	if err := eng.Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}
	for ep := 0; ep < 2; ep++ {
		if got := d0.epAt(1, ep).vc.RingOut().Tail(); got != 4 {
			t.Errorf("endpoint %d reserved %d ring slots, want 4", ep, got)
		}
		if got := d0.epAt(1, ep).vc.RingOut().Free(); got != 4 {
			t.Errorf("endpoint %d has %d ring slots credited back, want 4", ep, got)
		}
	}
	if err := Audit([]*Device{d0, d1}); err != nil {
		t.Errorf("audit: %v", err)
	}
}

// TestEndpointOnDemandBothEnds: both ranks decide to talk to the same
// cold pair within one setup window. Exactly one endpoint set may be
// established (the loser of the race must reuse it); the live registry
// would panic on the duplicate metric registration a double establish
// causes, and the setups counter confirms a single establishment.
func TestEndpointOnDemandBothEnds(t *testing.T) {
	for _, epN := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("endpoints=%d", epN), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Endpoints = epN
			cfg.OnDemand = true
			fc := ib.DefaultConfig()
			fc.Metrics = metrics.New()
			eng := sim.NewEngine()
			f := ib.NewFabric(eng, fc, 2)
			h0, h1 := &fakeHandler{}, &fakeHandler{}
			d0 := New(eng, f.HCA(0), cfg, core.Static(8), 0, 2, h0)
			d1 := New(eng, f.HCA(1), cfg, core.Static(8), 1, 2, h1)
			h0.dev, h1.dev = d0, d1
			Wire([]*Device{d0, d1})
			if d0.Stats().Conns != 0 {
				t.Fatal("on-demand wiring established eagerly")
			}
			eng.Go("rank0", func(p *sim.Proc) {
				d0.Send(p, 1, 0, 0, []byte("a"), nil, true)
				d0.WaitProgress(p, func() bool { return len(h0.eager) == 1 && d0.Quiescent() })
			})
			eng.Go("rank1", func(p *sim.Proc) {
				d1.Send(p, 0, 0, 0, []byte("b"), nil, true)
				d1.WaitProgress(p, func() bool { return len(h1.eager) == 1 && d1.Quiescent() })
			})
			if err := eng.Run(sim.MaxTime); err != nil {
				t.Fatal(err)
			}
			if got := d0.Stats().ConnSetups + d1.Stats().ConnSetups; got != 1 {
				t.Errorf("%d establishments for one pair, want 1", got)
			}
			for _, d := range []*Device{d0, d1} {
				if got := d.Stats().Conns; got != epN {
					t.Errorf("rank %d has %d endpoints, want %d", d.rank, got, epN)
				}
				if n := ownedQPs(d); n != epN {
					t.Errorf("rank %d has %d QPs, want %d", d.rank, n, epN)
				}
			}
			if err := Audit([]*Device{d0, d1}); err != nil {
				t.Errorf("audit: %v", err)
			}
		})
	}
}

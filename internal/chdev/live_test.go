package chdev

import (
	"slices"
	"testing"

	"ibflow/internal/core"
	"ibflow/internal/ib"
	"ibflow/internal/sim"
	"ibflow/internal/trace"
)

// TestEstablishIntoParkedSweep: on-demand establishment runs on the
// *peer's* process, so it can insert into a device whose backlog sweep is
// parked on a staged charge. The live list must then behave like the
// peer-major index space it replaced: the cursor keeps naming the
// connection being drained, a connection inserted below it is skipped
// this pass and visited the next, and the drain order is peer order.
//
// Rank 1 re-opens two degraded connections (toward 2 and 3), each holding
// an eager packet and a rendezvous start, and sweeps them; while the
// sweep is parked on the header copy of the RTS toward 2, rank 0
// connects to rank 1.
func TestEstablishIntoParkedSweep(t *testing.T) {
	cfg := DefaultConfig()
	cfg.OnDemand = true
	cfg.Debug = true
	tracer := trace.NewBuffer(1 << 10)
	cfg.Tracer = tracer
	eng := sim.NewEngine()
	f := ib.NewFabric(eng, ib.DefaultConfig(), 4)
	devs := make([]*Device, 4)
	hs := make([]*fakeHandler, 4)
	for i := range devs {
		hs[i] = &fakeHandler{}
		devs[i] = New(eng, f.HCA(i), cfg, core.Hardware(4), i, 4, hs[i])
		hs[i].dev = devs[i]
	}
	Wire(devs)
	d0, d1 := devs[0], devs[1]

	big := make([]byte, 64<<10)
	eng.Go("rank1", func(p *sim.Proc) {
		for _, peer := range []int{2, 3} {
			d1.Send(p, peer, 0, 0, []byte{0}, nil, true) // connects
		}
		// Freeze both connections as an exhausted RNR budget would, so an
		// eager packet and the RTS behind it wait in each backlog, then
		// re-open them as the re-issue event would: the next sweep drains.
		for _, peer := range []int{2, 3} {
			d1.epAt(peer, 0).degraded = true
			d1.Send(p, peer, 1, 0, []byte{1}, nil, false)
			d1.Send(p, peer, 2, 0, big, nil, false)
		}
		d1.epAt(2, 0).degraded, d1.epAt(3, 0).degraded = false, false
		d1.WaitProgress(p, d1.Quiescent)
	})
	eng.Go("rank0", func(p *sim.Proc) {
		d0.WaitProgress(p, func() bool { return hs[0].rndvDone == 1 })
	})
	for _, i := range []int{2, 3} {
		d, h := devs[i], hs[i]
		eng.Go("receiver", func(p *sim.Proc) {
			d.WaitProgress(p, func() bool { return len(h.eager) == 2 && h.rndvDone == 1 })
		})
	}

	// Single-step to the window: rank 1's sweep parked on the RTS toward 2.
	m := &d1.progress
	for m.pc != pcDrainPost || m.afterDrain != pcConnsCheck {
		if eng.Steps(1) == 0 {
			t.Fatal("the sweep never parked on a staged RTS post")
		}
	}
	c2, c3 := d1.epAt(2, 0), d1.epAt(3, 0)
	if m.drainC != c2 || d1.live[m.connIdx] != c2 {
		t.Fatalf("sweep parked on peer %d with the cursor on peer %d, want both on 2",
			m.drainC.peer, d1.live[m.connIdx].peer)
	}

	// Rank 0 connects, and (rank 1's own process being parked in the
	// session) a zero-length rendezvous start is queued on the fresh
	// connection by hand so that a visit to it shows as a drain; a
	// zero-length transfer registers nothing and never touches the process.
	establish(d0, d1)
	c0 := d1.epAt(0, 0)
	if !slices.Equal(d1.live, []*conn{c0, c2, c3}) {
		t.Fatalf("live list out of (peer, ep) order after a mid-run establish")
	}
	if d1.live[m.connIdx] != c2 {
		t.Errorf("cursor names peer %d after the insertion, want it still on peer 2", d1.live[m.connIdx].peer)
	}
	out := d1.newRndvOut(nil, c0, 3, 0, nil, nil, false)
	out.starved = true
	c0.vc.QueueFree()
	c0.pushBacklog(backlogEntry{rndv: out})

	// The rest of this pass reaches peer 3 and leaves peer 0 alone.
	for c3.backlog.Len() > 0 {
		if eng.Steps(1) == 0 {
			t.Fatal("the sweep never reached peer 3")
		}
	}
	if c0.backlog.Len() != 1 {
		t.Error("a connection inserted below the cursor was visited in the same pass")
	}
	if err := eng.Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}
	if c0.backlog.Len() != 0 {
		t.Error("the new connection was never visited")
	}
	var drained []int
	for _, e := range tracer.Events() {
		if e.Rank == 1 && e.Kind == trace.Drained {
			drained = append(drained, e.Peer)
		}
	}
	if want := []int{2, 2, 3, 3, 0}; !slices.Equal(drained, want) {
		t.Errorf("drain order by peer = %v, want %v", drained, want)
	}
	for _, d := range devs {
		d.Detach()
	}
	if err := eng.Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}
	if err := Audit(devs); err != nil {
		t.Errorf("audit: %v", err)
	}
}

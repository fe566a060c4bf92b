package chdev

import (
	"fmt"
	"slices"
	"testing"

	"ibflow/internal/core"
	"ibflow/internal/ib"
	"ibflow/internal/sim"
	"ibflow/internal/trace"
)

// TestEstablishIntoParkedSweep: the sweep's cursor is the (peer, ep)
// key of the connection it last visited, so a connection whose backlog
// starts while the sweep is parked on a staged charge is visited this
// pass if its key is above the cursor and the next pass if below. On-demand
// establishment runs on the *peer's* process, so a connection can even
// appear mid-sweep.
//
// Rank 1 re-opens two degraded connections (toward 2 and 3), each holding
// an eager packet and a rendezvous start, and sweeps them. While the
// sweep is parked on the header copy of the RTS toward 2, rank 0 connects
// to rank 1, and a rendezvous start is queued toward 0 (below the cursor)
// and toward the idle 4 (above it).
func TestEstablishIntoParkedSweep(t *testing.T) {
	cfg := DefaultConfig()
	cfg.OnDemand = true
	cfg.Debug = true
	tracer := trace.NewBuffer(1 << 10)
	cfg.Tracer = tracer
	eng := sim.NewEngine()
	f := ib.NewFabric(eng, ib.DefaultConfig(), 5)
	devs := make([]*Device, 5)
	hs := make([]*fakeHandler, 5)
	for i := range devs {
		hs[i] = &fakeHandler{}
		devs[i] = New(eng, f.HCA(i), cfg, core.Hardware(4), i, 5, hs[i])
		hs[i].dev = devs[i]
	}
	Wire(devs)
	d0, d1 := devs[0], devs[1]

	big := make([]byte, 64<<10)
	eng.Go("rank1", func(p *sim.Proc) {
		for _, peer := range []int{2, 3, 4} {
			d1.Send(p, peer, 0, 0, []byte{0}, nil, true) // connects
		}
		// Freeze two connections as an exhausted RNR budget would, so an
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
	for _, r := range []struct{ rank, eager int }{{2, 2}, {3, 2}, {4, 1}} {
		d, h := devs[r.rank], hs[r.rank]
		eng.Go("receiver", func(p *sim.Proc) {
			d.WaitProgress(p, func() bool { return len(h.eager) == r.eager && h.rndvDone == 1 })
		})
	}

	// Single-step to the window: rank 1's sweep parked on the RTS toward 2.
	m := &d1.progress
	for m.pc != pcDrainPost || m.afterDrain != pcConns {
		if eng.Steps(1) == 0 {
			t.Fatal("the sweep never parked on a staged RTS post")
		}
	}
	c2, c3, c4 := d1.epAt(2, 0), d1.epAt(3, 0), d1.epAt(4, 0)
	if m.drainC != c2 || m.cursor != d1.key(c2) {
		t.Fatalf("sweep parked on peer %d with the cursor at %v, want both on peer 2", m.drainC.peer, m.cursor)
	}

	// Rank 0 connects, and (rank 1's own process being parked in the
	// session) a zero-length rendezvous start is queued by hand on the
	// fresh connection and on the idle one toward 4, so that a visit
	// shows as a drain; a zero-length transfer registers nothing and
	// never touches the process.
	establish(d0, d1)
	c0 := d1.epAt(0, 0)
	if !slices.Equal(d1.live, []*conn{c0, c2, c3, c4}) {
		t.Fatalf("live list out of (peer, ep) order after a mid-run establish")
	}
	for _, c := range []*conn{c0, c4} {
		out := d1.newRndvOut(nil, c, 3, 0, nil, nil, false)
		out.starved = true
		c.vc.QueueFree()
		d1.pushBacklog(c, backlogEntry{rndv: out})
	}
	// Peer 2's backlog emptied when its RTS was popped, so the cursor
	// names a key no longer listed.
	if !slices.Equal(d1.backlogged, []*conn{c0, c3, c4}) {
		t.Fatal("backlog list out of (peer, ep) order after mid-sweep pushes")
	}

	// The rest of this pass reaches peers 3 and 4 and leaves peer 0 alone.
	for c4.backlog.Len() > 0 {
		if eng.Steps(1) == 0 {
			t.Fatal("the sweep never reached peer 4")
		}
	}
	if c0.backlog.Len() != 1 {
		t.Error("a connection listed below the cursor was visited in the same pass")
	}
	if err := eng.Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}
	if c0.backlog.Len() != 0 || len(d1.backlogged) != 0 {
		t.Error("the connection below the cursor was never visited")
	}
	var drained []int
	for _, e := range tracer.Events() {
		if e.Rank == 1 && e.Kind == trace.Drained {
			drained = append(drained, e.Peer)
		}
	}
	if want := []int{2, 2, 3, 3, 4, 0}; !slices.Equal(drained, want) {
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

// TestSweepWalksBacklogList: of four connections (two peers, two
// endpoints each), three get a backlog, pushed against (peer, ep) order.
// The sweep drains them in (peer, ep) order; the degraded one stays
// listed and drains after it re-opens, and the ones whose backlog empties
// during their own drain leave the list. Under Debug, a list that
// disagrees with the backlogs panics at the end of the pass; emptying a
// backlog that is not listed panics in any build.
func TestSweepWalksBacklogList(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Endpoints = 2
	cfg.Debug = true
	tracer := trace.NewBuffer(1 << 10)
	cfg.Tracer = tracer
	eng := sim.NewEngine()
	f := ib.NewFabric(eng, ib.DefaultConfig(), 3)
	devs := make([]*Device, 3)
	hs := make([]*fakeHandler, 3)
	for i := range devs {
		hs[i] = &fakeHandler{}
		devs[i] = New(eng, f.HCA(i), cfg, core.Hardware(4), i, 3, hs[i])
		hs[i].dev = devs[i]
	}
	Wire(devs)
	d := devs[0]
	c11, c20, c21 := d.epAt(1, 1), d.epAt(2, 0), d.epAt(2, 1)

	// Each connection's messages have a length of their own (10·peer+ep),
	// so the trace names the connection a drain came from.
	eng.Go("rank0", func(p *sim.Proc) {
		for _, c := range []*conn{c21, c20, c11} {
			c.degraded = true
			d.BindThread(c.ep)
			for range 2 {
				d.Send(p, c.peer, 0, 0, make([]byte, 10*c.peer+c.ep), nil, false)
			}
		}
		if !slices.Equal(d.backlogged, []*conn{c11, c20, c21}) {
			t.Error("backlog list is not in (peer, ep) order")
		}
		c11.degraded, c21.degraded = false, false
		d.ProgressOnce(p)
		if !slices.Equal(d.backlogged, []*conn{c20}) {
			t.Error("after a pass, the backlog list is not just the degraded connection")
		}
		c20.degraded = false
		d.WaitProgress(p, d.Quiescent)
		if len(d.backlogged) != 0 {
			t.Error("the backlog list is not empty at quiescence")
		}
	})
	for _, r := range []struct{ rank, eager int }{{1, 2}, {2, 4}} {
		d, h := devs[r.rank], hs[r.rank]
		eng.Go("receiver", func(p *sim.Proc) {
			d.WaitProgress(p, func() bool { return len(h.eager) == r.eager })
		})
	}
	if err := eng.Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}
	var drained []int
	for _, e := range tracer.Events() {
		if e.Rank == 0 && e.Kind == trace.Drained {
			drained = append(drained, int(e.Arg)-HeaderSize)
		}
	}
	if want := []int{11, 11, 21, 21, 20, 20}; !slices.Equal(drained, want) {
		t.Errorf("drained message lengths = %v, want %v", drained, want)
	}

	// The end-of-pass law catches a list that disagrees with the
	// backlogs: a stale entry, then a backlog the list misses.
	d.backlogged = []*conn{c20}
	if msg, want := panicOf(d.debugCheckSweep), "rank 0: backlog list has 1 entries, 0 live connections have a backlog"; msg != "chdev: "+want {
		t.Errorf("a stale backlog-list entry panicked with %q, want %q", msg, want)
	}
	d.backlogged = nil
	c11.vc.QueueFree()
	c11.backlog.Push(backlogEntry{})
	if msg, want := panicOf(d.debugCheckSweep), "rank 0: peer 1 ep 1 has a backlog but is not backlog-list entry 0"; msg != "chdev: "+want {
		t.Errorf("an unlisted backlog panicked with %q, want %q", msg, want)
	}

	// Emptying an unlisted backlog panics at once, in any build, rather
	// than taking the listed neighbour below it off the list.
	c10 := d.epAt(1, 0)
	d.backlogged = []*conn{c10}
	if msg, want := panicOf(func() { d.popBacklog(c11) }), "rank 0: peer 1 ep 1 emptied its backlog but is not on the backlog list"; msg != "chdev: "+want {
		t.Errorf("emptying an unlisted backlog panicked with %q, want %q", msg, want)
	}
	if !slices.Equal(d.backlogged, []*conn{c10}) {
		t.Error("emptying an unlisted backlog changed the backlog list")
	}
}

// BenchmarkProgressPass times one ProgressOnce on a device with n idle
// established connections — the channel device's own per-call cost,
// which every Send pays first.
func BenchmarkProgressPass(b *testing.B) {
	for _, n := range []int{1, 48, 1024} {
		b.Run(fmt.Sprintf("conns=%d", n), func(b *testing.B) {
			cfg := DefaultConfig()
			cfg.OnDemand = true
			eng := sim.NewEngine()
			f := ib.NewFabric(eng, ib.DefaultConfig(), n+1)
			devs := make([]*Device, n+1)
			for i := range devs {
				devs[i] = New(eng, f.HCA(i), cfg, core.Static(8), i, n+1, &fakeHandler{})
			}
			Wire(devs)
			for _, d := range devs[1:] {
				establish(devs[0], d)
			}
			eng.Go("rank0", func(p *sim.Proc) {
				b.ResetTimer()
				for range b.N {
					devs[0].ProgressOnce(p)
				}
				b.StopTimer()
			})
			if err := eng.Run(sim.MaxTime); err != nil {
				b.Fatal(err)
			}
		})
	}
}

package chdev

import (
	"bytes"
	"testing"
	"unsafe"

	"ibflow/internal/core"
	"ibflow/internal/debug"
	"ibflow/internal/ib"
	"ibflow/internal/sim"
)

// fakeHandler records upcalls and auto-accepts rendezvous into a buffer.
type fakeHandler struct {
	dev      *Device
	eager    [][]byte
	eagerSrc []int
	rndvBuf  []byte
	rndvDone int
	sendDone []any

	pendEager []byte // copy in flight between EagerStart and EagerDone
	pendSrc   int
}

func (h *fakeHandler) DeliverEagerStart(src, tag int, comm uint16, data []byte) {
	owned := make([]byte, len(data))
	copy(owned, data)
	h.pendEager = owned
	h.pendSrc = src
}

func (h *fakeHandler) DeliverEagerDone() {
	h.eager = append(h.eager, h.pendEager)
	h.eagerSrc = append(h.eagerSrc, h.pendSrc)
	h.pendEager = nil
}

func (h *fakeHandler) DeliverRndvStart(r *RndvIn) ([]byte, bool) {
	h.rndvBuf = make([]byte, r.Len)
	return h.rndvBuf, true
}

func (h *fakeHandler) DeliverRndvDone(r *RndvIn) { h.rndvDone++ }

func (h *fakeHandler) SendDone(token any) { h.sendDone = append(h.sendDone, token) }

// devPair builds two wired devices with fake handlers on a 2-node fabric.
func devPair(t *testing.T, cfg Config, params core.Params) (*sim.Engine, *Device, *Device, *fakeHandler, *fakeHandler) {
	t.Helper()
	eng := sim.NewEngine()
	f := ib.NewFabric(eng, ib.DefaultConfig(), 2)
	h0, h1 := &fakeHandler{}, &fakeHandler{}
	d0 := New(eng, f.HCA(0), cfg, params, 0, 2, h0)
	d1 := New(eng, f.HCA(1), cfg, params, 1, 2, h1)
	h0.dev, h1.dev = d0, d1
	Wire([]*Device{d0, d1})
	return eng, d0, d1, h0, h1
}

func TestDeviceEagerDelivery(t *testing.T) {
	eng, d0, d1, _, h1 := devPair(t, DefaultConfig(), core.Static(8))
	eng.Go("sender", func(p *sim.Proc) {
		d0.Send(p, 1, 42, 0, []byte("payload"), "tok", true)
		d0.WaitProgress(p, d0.Quiescent)
	})
	eng.Go("receiver", func(p *sim.Proc) {
		d1.WaitProgress(p, func() bool { return len(h1.eager) > 0 })
	})
	if err := eng.Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}
	if len(h1.eager) != 1 || !bytes.Equal(h1.eager[0], []byte("payload")) {
		t.Fatalf("eager = %q", h1.eager)
	}
	if h1.eagerSrc[0] != 0 {
		t.Errorf("src = %d", h1.eagerSrc[0])
	}
}

func TestDeviceRendezvousDelivery(t *testing.T) {
	eng, d0, d1, h0, h1 := devPair(t, DefaultConfig(), core.Static(8))
	big := make([]byte, 100*1024)
	for i := range big {
		big[i] = byte(i * 5)
	}
	eng.Go("sender", func(p *sim.Proc) {
		d0.Send(p, 1, 7, 0, big, "big", true)
		d0.WaitProgress(p, func() bool { return len(h0.sendDone) > 0 && d0.Quiescent() })
	})
	eng.Go("receiver", func(p *sim.Proc) {
		d1.WaitProgress(p, func() bool { return h1.rndvDone > 0 })
	})
	if err := eng.Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(h1.rndvBuf, big) {
		t.Fatal("rendezvous payload corrupted")
	}
	if len(h0.sendDone) != 1 || h0.sendDone[0] != "big" {
		t.Fatalf("sendDone = %v", h0.sendDone)
	}
}

func TestDeviceQuiescentSemantics(t *testing.T) {
	eng, d0, d1, _, h1 := devPair(t, DefaultConfig(), core.Static(2))
	if !d0.Quiescent() {
		t.Fatal("fresh device not quiescent")
	}
	eng.Go("sender", func(p *sim.Proc) {
		// Exhaust credits; further non-blocking sends backlog.
		for i := 0; i < 6; i++ {
			d0.Send(p, 1, i, 0, []byte{byte(i)}, i, false)
		}
		if d0.Quiescent() {
			t.Error("device with backlog reported quiescent")
		}
		d0.WaitProgress(p, d0.Quiescent)
	})
	eng.Go("receiver", func(p *sim.Proc) {
		d1.WaitProgress(p, func() bool { return len(h1.eager) == 6 })
	})
	if err := eng.Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}
	if !d0.Quiescent() {
		t.Error("drained device not quiescent")
	}
}

func TestDevicePokeMakesProgressWithoutBlocking(t *testing.T) {
	eng, d0, d1, _, h1 := devPair(t, DefaultConfig(), core.Static(4))
	eng.Go("sender", func(p *sim.Proc) {
		d0.Send(p, 1, 0, 0, []byte("x"), nil, true)
		d0.WaitProgress(p, d0.Quiescent)
	})
	eng.Go("receiver", func(p *sim.Proc) {
		for len(h1.eager) == 0 {
			d1.Poke(p)
			p.Sleep(sim.Microsecond)
		}
	})
	if err := eng.Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}
}

func TestDeviceValidation(t *testing.T) {
	eng := sim.NewEngine()
	f := ib.NewFabric(eng, ib.DefaultConfig(), 1)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("invalid params accepted")
			}
		}()
		New(eng, f.HCA(0), DefaultConfig(), core.Params{Kind: core.KindStatic}, 0, 1, &fakeHandler{})
	}()
}

func TestDeviceSendToInvalidPeerPanics(t *testing.T) {
	eng, d0, _, _, _ := devPair(t, DefaultConfig(), core.Static(4))
	eng.Go("bad", func(p *sim.Proc) {
		defer func() {
			if recover() == nil {
				t.Error("self-send through device accepted")
			}
		}()
		d0.Send(p, 0, 0, 0, nil, nil, true)
	})
	if err := eng.Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}
}

func TestDeviceStatsAccounting(t *testing.T) {
	eng, d0, d1, _, h1 := devPair(t, DefaultConfig(), core.Dynamic(2, 32))
	eng.Go("sender", func(p *sim.Proc) {
		for i := 0; i < 10; i++ {
			d0.Send(p, 1, 0, 0, []byte{1}, nil, false)
		}
		d0.WaitProgress(p, d0.Quiescent)
	})
	eng.Go("receiver", func(p *sim.Proc) {
		d1.WaitProgress(p, func() bool { return len(h1.eager) == 10 })
	})
	if err := eng.Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}
	st := d0.Stats()
	if st.Conns != 1 || st.MsgsSent == 0 || st.EagerSent == 0 {
		t.Errorf("sender stats = %+v", st)
	}
	rt := d1.Stats()
	if rt.SumPosted < 2 || rt.BufBytesInUse != rt.SumPosted*bufSize {
		t.Errorf("receiver stats = %+v", rt)
	}
}

// A connection end is carved from its world's end slab (endSlab), so it
// costs exactly its size of a slab: 776 B, 42 to a 32 KB slab. The QP is
// 352 B of it: its receive queue keeps descriptors as runs, one of them
// inline. The end keeps no record per work request — a completion names
// what it retires — and a field that pushes the conn past 780 B, so that
// 42 no longer fit, fails here by name: shrink something, or say why the
// end is worth it and move the bound.
func TestConnSize(t *testing.T) {
	if got := unsafe.Sizeof(conn{}); got > 780 {
		t.Errorf("unsafe.Sizeof(conn{}) = %d, want <= 780 (42 ends to a 32 KB slab)", got)
	}
	if got := unsafe.Sizeof(ib.QP{}); got != 352 {
		t.Errorf("unsafe.Sizeof(ib.QP{}) = %d, want 352", got)
	}
}

// A Device is one object per rank. An object over 512 B that holds
// pointers carries an 8-byte allocation header, so the 768-byte size
// class takes a Device of at most 760 B; one word more costs the 896-byte
// class, 128 KB on a 1 024-rank storm (live_heap_mb). The bound is the
// product build's: under ibdebug its two pools carry liveness books.
func TestDeviceSize(t *testing.T) {
	if debug.Enabled {
		t.Skip("ibdebug builds carry the pools' liveness books")
	}
	if got := unsafe.Sizeof(Device{}); got > 760 {
		t.Errorf("unsafe.Sizeof(Device{}) = %d, want <= 760 (the 768-byte size class, less its header)", got)
	}
}

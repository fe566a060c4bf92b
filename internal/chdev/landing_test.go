package chdev

import (
	"strings"
	"testing"

	"ibflow/internal/core"
	"ibflow/internal/ib"
	"ibflow/internal/mem"
	"ibflow/internal/sim"
)

// devTrio wires three devices, so that one of them holds a connection
// that carries traffic beside one that stays idle.
func devTrio(t *testing.T, params core.Params) (*sim.Engine, []*Device, []*fakeHandler) {
	t.Helper()
	eng := sim.NewEngine()
	f := ib.NewFabric(eng, ib.DefaultConfig(), 3)
	devs := make([]*Device, 3)
	hs := make([]*fakeHandler, 3)
	for i := range devs {
		hs[i] = &fakeHandler{}
		devs[i] = New(eng, f.HCA(i), DefaultConfig(), params, i, 3, hs[i])
		hs[i].dev = devs[i]
	}
	Wire(devs)
	return eng, devs, hs
}

// sendOneSettled sends one eager message 0 -> 1 and lets every device
// drain until the engine's queue is empty.
func sendOneSettled(t *testing.T, eng *sim.Engine, devs []*Device, h1 *fakeHandler) {
	t.Helper()
	eng.Go("sender", func(p *sim.Proc) {
		devs[0].Send(p, 1, 0, 0, []byte("one"), nil, true)
		devs[0].WaitProgress(p, devs[0].Quiescent)
		devs[0].Detach()
	})
	eng.Go("receiver", func(p *sim.Proc) {
		devs[1].WaitProgress(p, func() bool { return len(h1.eager) == 1 })
		devs[1].Detach()
	})
	if err := eng.Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}
}

// An established connection that carries nothing commits no host bytes:
// its posted receives are descriptors, its ring a reservation. What the
// schemes count — posted descriptors, pinned buffer memory — is there in
// full from establishment, and is what it always was.
func TestIdleConnectionCommitsNothing(t *testing.T) {
	t.Run("static", func(t *testing.T) {
		eng, devs, hs := devTrio(t, core.Static(8))
		for _, d := range devs {
			if d.pool.Allocated() != 0 {
				t.Fatalf("rank %d carved %d buffers for idle connections", d.rank, d.pool.Allocated())
			}
			if st := d.Stats(); st.SumPosted != 16 || st.BufBytesHWM != 16*bufSize || st.BufBytesInUse != 16*bufSize {
				t.Fatalf("rank %d idle stats = %+v, want 2 x 8 posted buffers", d.rank, st)
			}
		}
		sendOneSettled(t, eng, devs, hs[1])
		// Sender: the packet's staging buffer. Receiver: the landing.
		// Bystander: nothing. At the parent each had carved 16.
		for rank, want := range []int{1, 1, 0} {
			if got := devs[rank].pool.Allocated(); got != want {
				t.Errorf("rank %d carved %d buffers, want %d", rank, got, want)
			}
			if st := devs[rank].Stats(); st.SumPosted != 16 || st.BufBytesHWM != 16*bufSize {
				t.Errorf("rank %d stats after one message = %+v, want 2 x 8 posted buffers", rank, st)
			}
		}
		if err := Audit(devs); err != nil {
			t.Errorf("audit: %v", err)
		}
	})
	t.Run("rdma", func(t *testing.T) {
		eng, devs, hs := devTrio(t, core.RDMA(8, 1024))
		perConn := 8*1024 + 8*bufSize // ring region + control quota
		for _, d := range devs {
			if d.pool.Allocated() != 0 {
				t.Fatalf("rank %d carved %d buffers for idle connections", d.rank, d.pool.Allocated())
			}
			for _, c := range d.live {
				if c.ringMR.Committed() != 0 || c.ringMR.Len() != 8*1024 {
					t.Fatalf("rank %d -> %d: idle ring region committed=%d len=%d",
						d.rank, c.peer, c.ringMR.Committed(), c.ringMR.Len())
				}
			}
			if st := d.Stats(); st.SumPosted != 16 || st.BufBytesHWM != 2*perConn || st.BufBytesInUse != 2*perConn {
				t.Fatalf("rank %d idle stats = %+v, want 2 x (ring + control quota)", d.rank, st)
			}
		}
		sendOneSettled(t, eng, devs, hs[1])
		for _, d := range devs {
			for _, c := range d.live {
				want := 0
				if d.rank == 1 && c.peer == 0 {
					want = 64 // the 51-byte packet, rounded up to the 64-B extent unit
				}
				if got := c.ringMR.Committed(); got != want {
					t.Errorf("rank %d ring from %d: %d bytes committed, want %d (what landed in the one written slot of the one written ring)",
						d.rank, c.peer, got, want)
				}
			}
			if st := d.Stats(); st.SumPosted != 16 || st.BufBytesHWM != 2*perConn {
				t.Errorf("rank %d stats after one message = %+v", d.rank, st)
			}
		}
		// The ring landing took no pool buffer, and one consumed slot is
		// below the head-sync threshold: only the sender's staging buffer
		// was carved. Backing everything at establishment, each rank had
		// carved its 16 control buffers and allocated both 8 KB rings.
		for rank, want := range []int{1, 0, 0} {
			if got := devs[rank].pool.Allocated(); got != want {
				t.Errorf("rank %d carved %d buffers, want %d", rank, got, want)
			}
		}
		if err := Audit(devs); err != nil {
			t.Errorf("audit: %v", err)
		}
	})
}

// aliasHandler keeps what DeliverEagerStart was handed — the bytes the
// arrival landed in, not a copy.
type aliasHandler struct {
	fakeHandler
	landed [][]byte
}

func (h *aliasHandler) DeliverEagerStart(src, tag int, comm uint16, data []byte) {
	h.landed = append(h.landed, data)
	h.fakeHandler.DeliverEagerStart(src, tag, comm, data)
}

// ringDevPair wires two devices on the ring scheme, rank 1 keeping its
// landings.
func ringDevPair(t *testing.T, slots int) (*sim.Engine, *Device, *Device, *aliasHandler) {
	t.Helper()
	eng := sim.NewEngine()
	f := ib.NewFabric(eng, ib.DefaultConfig(), 2)
	h1 := &aliasHandler{}
	d0 := New(eng, f.HCA(0), DefaultConfig(), core.RDMA(slots, 1024), 0, 2, &fakeHandler{})
	d1 := New(eng, f.HCA(1), DefaultConfig(), core.RDMA(slots, 1024), 1, 2, h1)
	Wire([]*Device{d0, d1})
	return eng, d0, d1, h1
}

// Ring memory is persistent: a slot's host bytes are committed by the
// first write into it, as far as that write reaches, and are the same
// bytes on every lap of the ring until a longer write grows them —
// never pool-served, never recycled. That is what makes a flow-control
// bug visible: a write that overruns an unconsumed slot lands in the live
// payload, and the receiver delivers the damage, whether the overrun is
// shorter than what landed or long enough to grow the slot's extent.
func TestRingSlotsKeepTheirBytes(t *testing.T) {
	const slots, laps = 4, 3
	t.Run("same bytes every lap", func(t *testing.T) {
		eng, d0, d1, h1 := ringDevPair(t, slots)
		eng.Go("sender", func(p *sim.Proc) {
			for i := 0; i < slots*laps; i++ {
				d0.Send(p, 1, 0, 0, []byte{byte(i)}, nil, true)
			}
			d0.WaitProgress(p, d0.Quiescent)
			d0.Detach()
		})
		eng.Go("receiver", func(p *sim.Proc) {
			d1.WaitProgress(p, func() bool { return len(h1.eager) == slots*laps })
			d1.Detach()
		})
		if err := eng.Run(sim.MaxTime); err != nil {
			t.Fatal(err)
		}
		if len(h1.landed) != slots*laps {
			t.Fatalf("%d messages landed, want %d", len(h1.landed), slots*laps)
		}
		for i, b := range h1.landed {
			if h1.eager[i][0] != byte(i) {
				t.Fatalf("message %d delivered %v", i, h1.eager[i])
			}
			if first := h1.landed[i%slots]; &b[0] != &first[0] {
				t.Errorf("message %d (slot %d, lap %d) landed in different host bytes than on lap 0", i, i%slots, i/slots)
			}
			for j := 0; j < i%slots; j++ {
				if &b[0] == &h1.landed[j][0] {
					t.Errorf("slots %d and %d share host bytes", i%slots, j)
				}
			}
		}
		// Every packet is 49 bytes: each slot commits one 64-B extent on
		// lap 0 and nothing after.
		if got := d1.epAt(0, 0).ringMR.Committed(); got != slots*64 {
			t.Errorf("%d ring bytes committed after %d laps, want %d: one 64-B extent per slot", got, laps, slots*64)
		}
		if err := Audit([]*Device{d0, d1}); err != nil {
			t.Errorf("audit: %v", err)
		}
	})
	// One message lands in slot 0 and stays unconsumed — the receiver's
	// software has not run yet — while a sender that ignored the ring's
	// head writes the slot again: bare verbs, outside the device's flow
	// control.
	overrun := func(t *testing.T, rogue []byte) string {
		t.Helper()
		eng, d0, d1, h1 := ringDevPair(t, slots)
		eng.Go("sender", func(p *sim.Proc) {
			d0.Send(p, 1, 0, 0, []byte("intact!"), nil, true)
			d0.WaitProgress(p, d0.Quiescent)
		})
		if err := eng.Run(sim.MaxTime); err != nil {
			t.Fatal(err)
		}
		cq0, cq1 := d0.hca.NewCQ(), d1.hca.NewCQ()
		qp, sink := d0.hca.NewQP(cq0, cq0), d1.hca.NewQP(cq1, cq1)
		ib.Connect(qp, sink)
		qp.PostWrite(1, rogue, ib.RemoteKey{MR: &d1.epAt(0, 0).ringMR, Offset: HeaderSize})
		if err := eng.Run(sim.MaxTime); err != nil {
			t.Fatal(err)
		}
		eng.Go("receiver", func(p *sim.Proc) {
			d1.WaitProgress(p, func() bool { return len(h1.eager) == 1 })
		})
		if err := eng.Run(sim.MaxTime); err != nil {
			t.Fatal(err)
		}
		return string(h1.eager[0])
	}
	t.Run("an overrun corrupts a live payload", func(t *testing.T) {
		if got := overrun(t, []byte("damaged")); got != "damaged" {
			t.Errorf("delivered %q: the overrun did not reach the bytes the arrival landed in", got)
		}
	})
	t.Run("a longer overrun corrupts a live payload", func(t *testing.T) {
		// 48 + 7 bytes landed and committed 64; the rogue write reaches
		// byte 48 + 200, so it re-commits the slot before it lands.
		rogue := append([]byte("damaged"), make([]byte, 193)...)
		if got := overrun(t, rogue); got != "damaged" {
			t.Errorf("delivered %q: the overrun that grew the slot did not reach the payload", got)
		}
	})
}

// skipOneRepost is a provisioner that forgets one processed descriptor.
type skipOneRepost struct {
	recvProvisioner
	pool    *mem.BufPool
	skipped bool
}

func (s *skipOneRepost) processed(c *conn, buf []byte, hdr *Header) {
	if !s.skipped {
		s.skipped = true
		s.pool.Put(buf)
		return
	}
	s.recvProvisioner.processed(c, buf, hdr)
}

// The audit's descriptor law catches a repost that never happened on the
// per-connection and ring shapes, as the SRQ law does on the shared one;
// its pool law catches a buffer somebody kept.
func TestAuditCatchesDescriptorAndBufferLeaks(t *testing.T) {
	// A rendezvous under every scheme: the sender's first arrival (the
	// CTS; the FIN on the ring) lands in a receive descriptor — on the
	// ring, one of the control quota.
	run := func(t *testing.T, params core.Params, skip bool) []*Device {
		eng, d0, d1, h0, h1 := devPair(t, DefaultConfig(), params)
		if skip {
			d0.prov = &skipOneRepost{recvProvisioner: d0.prov, pool: d0.pool}
		}
		eng.Go("sender", func(p *sim.Proc) {
			d0.Send(p, 1, 0, 0, make([]byte, 64<<10), nil, true)
			d0.WaitProgress(p, func() bool { return len(h0.sendDone) == 1 && d0.Quiescent() })
			d0.Detach()
		})
		eng.Go("receiver", func(p *sim.Proc) {
			d1.WaitProgress(p, func() bool { return h1.rndvDone == 1 && d1.Quiescent() })
			d1.Detach()
		})
		if err := eng.Run(sim.MaxTime); err != nil {
			t.Fatal(err)
		}
		return []*Device{d0, d1}
	}
	for _, params := range []core.Params{core.Hardware(4), core.Static(4), core.Dynamic(4, 16), core.RDMA(4, 1024)} {
		t.Run(params.Kind.String(), func(t *testing.T) {
			devs := run(t, params, false)
			if err := Audit(devs); err != nil {
				t.Fatalf("clean run must audit clean: %v", err)
			}
			held := devs[1].pool.Get()
			if err := Audit(devs); err == nil || !strings.Contains(err.Error(), "pool buffers still checked out") {
				t.Errorf("audit with one buffer held = %v, want the pool-buffer error", err)
			}
			devs[1].pool.Put(held)

			err := Audit(run(t, params, true))
			if err == nil || !strings.Contains(err.Error(), "receive descriptor leak") {
				t.Errorf("audit after a skipped repost = %v, want the descriptor-leak error", err)
			}
		})
	}
}

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
	bufSize := DefaultConfig().BufSize
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
				if c.ringMR.Committed() || c.ringMR.Len() != 8*1024 {
					t.Fatalf("rank %d -> %d: idle ring region committed=%v len=%d",
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
				if want := d.rank == 1 && c.peer == 0; c.ringMR.Committed() != want {
					t.Errorf("rank %d ring from %d: committed=%v, want %v (only the written ring)",
						d.rank, c.peer, c.ringMR.Committed(), want)
				}
			}
			if st := d.Stats(); st.SumPosted != 16 || st.BufBytesHWM != 2*perConn {
				t.Errorf("rank %d stats after one message = %+v", d.rank, st)
			}
		}
		// The ring landing took no pool buffer, and one consumed slot is
		// below the head-sync threshold: only the sender's staging buffer
		// was carved. At the parent each rank had carved its 16 control
		// buffers and allocated both 8 KB rings.
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

package chdev

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"ibflow/internal/core"
	"ibflow/internal/debug"
	"ibflow/internal/sim"
)

// reuseHandler accepts every rendezvous into one buffer it reuses, counts
// completions, and keeps the last *RndvIn it was shown — past
// DeliverRndvDone, which is what the contract forbids.
type reuseHandler struct {
	fakeHandler
	buf   []byte
	sends int
	kept  *RndvIn
}

func (h *reuseHandler) DeliverRndvStart(r *RndvIn) ([]byte, bool) {
	h.kept = r
	return h.buf, true
}

func (h *reuseHandler) SendDone(any) { h.sends++ }

func rndvPair(t *testing.T, params core.Params, size int) (*sim.Engine, *Device, *Device, *reuseHandler, *reuseHandler) {
	t.Helper()
	eng, d0, d1, _, _ := devPair(t, DefaultConfig(), params)
	h0, h1 := &reuseHandler{}, &reuseHandler{buf: make([]byte, size)}
	d0.handler, d1.handler = h0, h1
	return eng, d0, d1, h0, h1
}

// rndvShapes are the two ways round a rendezvous runs: RTS, CTS, RDMA
// write, FIN under the send/receive schemes; RTS, RDMA read, FIN on the
// ring.
var rndvShapes = []core.Params{core.Static(8), core.RDMA(8, 1024)}

// A rendezvous from and into reused buffers allocates nothing: its state
// on both sides comes from the device's pools, the registrations hit the
// pin-down cache, the work requests ride recycled boxes and rings. What is
// left after the first 64 messages is chunk refills: under 0.05 objects
// per message, where every message cost six to eight.
func TestRendezvousAllocatesNothing(t *testing.T) {
	const size, msgs, warm = 16 << 10, 1000, 64
	for _, fc := range rndvShapes {
		t.Run(fc.Kind.String(), func(t *testing.T) {
			eng, d0, d1, h0, h1 := rndvPair(t, fc, size)
			payload := make([]byte, size)
			for i := range payload {
				payload[i] = byte(i * 7)
			}
			var before, after runtime.MemStats
			eng.Go("sender", func(p *sim.Proc) {
				i := 0
				sent := func() bool { return h0.sends > i && d0.Quiescent() }
				for ; i < warm+msgs; i++ {
					if i == warm {
						runtime.ReadMemStats(&before)
					}
					payload[0] = byte(i)
					d0.Send(p, 1, i, 0, payload, nil, true)
					d0.WaitProgress(p, sent)
				}
				runtime.ReadMemStats(&after)
			})
			eng.Go("receiver", func(p *sim.Proc) {
				d1.WaitProgress(p, func() bool { return h1.rndvDone == warm+msgs })
			})
			if err := eng.Run(sim.MaxTime); err != nil {
				t.Fatal(err)
			}
			if h1.rndvDone != warm+msgs || !bytes.Equal(h1.buf, payload) {
				t.Fatalf("%d of %d rendezvous delivered, payload intact: %v",
					h1.rndvDone, warm+msgs, bytes.Equal(h1.buf, payload))
			}
			if d0.outs.Carved() > 4 || d1.ins.Carved() > 4 {
				t.Errorf("one rendezvous at a time carved %d outgoing and %d incoming states, want one chunk of 4 at most",
					d0.outs.Carved(), d1.ins.Carved())
			}
			perMsg := float64(after.Mallocs-before.Mallocs) / msgs
			t.Logf("%v: %.3f objects per rendezvous after the first %d", fc.Kind, perMsg, warm)
			if perMsg > 0.05 && !debug.Enabled {
				t.Errorf("a rendezvous allocates %.3f objects, want <= 0.05", perMsg)
			}
		})
	}
}

// panicOf runs fn and returns what it panicked with, as text.
func panicOf(fn func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	fn()
	return ""
}

// A *RndvIn is the handler's until DeliverRndvDone returns. One kept past
// that and accepted again is caught: by the pool's books under ibdebug,
// with the rank and the rendezvous named; as a plain double accept without
// the tag, for as long as the object has not been handed out anew.
func TestStaleRndvInIsCaught(t *testing.T) {
	for _, fc := range rndvShapes {
		eng, d0, d1, _, h1 := rndvPair(t, fc, 16<<10)
		var msg string
		eng.Go("sender", func(p *sim.Proc) {
			d0.Send(p, 1, 0, 0, make([]byte, 16<<10), nil, true)
			d0.WaitProgress(p, d0.Quiescent)
		})
		eng.Go("receiver", func(p *sim.Proc) {
			d1.WaitProgress(p, func() bool { return h1.rndvDone == 1 })
			msg = panicOf(func() { d1.AcceptRndv(p, h1.kept, h1.buf) })
		})
		if err := eng.Run(sim.MaxTime); err != nil {
			t.Fatal(err)
		}
		want := "chdev: rendezvous accepted twice"
		if debug.Enabled {
			want = "rank 1: rendezvous 1 from rank 0 used after it was recycled"
		}
		if !strings.Contains(msg, want) {
			t.Errorf("%v: accepting a recycled *RndvIn panicked with %q, want %q", fc.Kind, msg, want)
		}
	}
}

// Finishing a send twice is caught too: the second finish finds the
// rendezvous gone from the table (and, under ibdebug, the object back in
// the pool). The message is its end's first, so it is rendezvous 1.
func TestDoubleFinishSendIsCaught(t *testing.T) {
	for _, fc := range rndvShapes {
		eng, d0, d1, h0, h1 := rndvPair(t, fc, 16<<10)
		var out *rndvOut
		c := d0.epAt(1, 0)
		eng.Go("sender", func(p *sim.Proc) {
			d0.Send(p, 1, 0, 0, make([]byte, 16<<10), nil, false)
			out = d0.sendRndv[d0.rndvKey(c, 1)]
			d0.WaitProgress(p, func() bool { return h0.sends == 1 && d0.Quiescent() })
		})
		eng.Go("receiver", func(p *sim.Proc) {
			d1.WaitProgress(p, func() bool { return h1.rndvDone == 1 })
		})
		if err := eng.Run(sim.MaxTime); err != nil {
			t.Fatal(err)
		}
		if out == nil || h0.sends != 1 {
			t.Fatalf("%v: no rendezvous in flight after Send (out %v), or not finished once (%d)", fc.Kind, out, h0.sends)
		}
		want := "rank 0: finishing unknown rendezvous 1"
		if debug.Enabled {
			want = "rank 0: outgoing rendezvous 1 used after it was recycled"
		}
		if msg := panicOf(func() { d0.finishSend(c, out) }); !strings.Contains(msg, want) {
			t.Errorf("%v: second finishSend panicked with %q, want %q", fc.Kind, msg, want)
		}
		if h0.sends != 1 {
			t.Errorf("%v: the second finish reached the handler (%d SendDone upcalls)", fc.Kind, h0.sends)
		}
	}
}

// An accepted rendezvous is in recvRndv until its data is in, under
// either shape: a pull the receiver has posted and not yet retired is
// there under its RTS's number, marked as pulled, and Audit reports it in
// flight; its read's completion takes it out.
func TestPullInFlightIsInRecvRndv(t *testing.T) {
	const size = 16 << 10
	eng, d0, d1, h0, _ := rndvPair(t, core.RDMA(8, 1024), size)
	h0.buf = make([]byte, size)
	var r *RndvIn
	var auditErr error
	eng.Go("sender", func(p *sim.Proc) {
		d1.Send(p, 0, 0, 0, make([]byte, size), nil, true)
		d1.WaitProgress(p, d1.Quiescent)
	})
	eng.Go("receiver", func(p *sim.Proc) {
		d0.WaitProgress(p, func() bool { return len(d0.recvRndv) > 0 })
		r = d0.recvRndv[d0.rndvKey(d0.epAt(1, 0), 1)] // the end's first message
		auditErr = Audit([]*Device{d0, d1})
		d0.WaitProgress(p, func() bool { return h0.rndvDone == 1 && d0.Quiescent() })
	})
	if err := eng.Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}
	if r == nil || !r.pulled || r.seq != 1 {
		t.Fatalf("pull in flight: recvRndv entry %+v, want rendezvous 1, pulled", r)
	}
	want := "rank 0: rendezvous still in flight (0 out, 1 in)"
	if auditErr == nil || !strings.Contains(auditErr.Error(), want) {
		t.Errorf("Audit with a pull in flight = %v, want %q", auditErr, want)
	}
	if len(d0.recvRndv) != 0 {
		t.Errorf("%d rendezvous left in recvRndv after the read completed", len(d0.recvRndv))
	}
}

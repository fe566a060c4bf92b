package chdev

import (
	"strings"
	"testing"

	"ibflow/internal/core"
	"ibflow/internal/sim"
)

// deferHandler holds every rendezvous back for its receiver to accept from
// process context (Device.AcceptRndv).
type deferHandler struct {
	fakeHandler
	kept *RndvIn
}

func (h *deferHandler) DeliverRndvStart(r *RndvIn) ([]byte, bool) {
	h.kept = r
	return nil, false
}

// An RDMA against a region whose registration ended while its rendezvous
// was in flight fails at the rkey lookup, naming the region: the read
// shape pulls from a source the sender deregistered after its RTS left,
// the write shape writes into a destination the receiver deregistered
// after its CTS left. The registrations end through the cache
// (RegCache.Invalidate, what FreeMem does) without FreeMem's ibdebug
// guard, which would refuse first.
func TestRDMAOnDeregisteredRegionPanics(t *testing.T) {
	const size = 16 << 10
	for _, fc := range rndvShapes {
		pulls := fc.Kind == core.KindRDMA
		eng, d0, d1, _, _ := devPair(t, DefaultConfig(), fc)
		h1 := &deferHandler{}
		d1.handler = h1
		src, dst := make([]byte, size), make([]byte, size)
		eng.Go("sender", func(p *sim.Proc) {
			d0.Send(p, 1, 0, 0, src, nil, false)
			if pulls {
				d0.regs.Invalidate(src)
			}
			d0.WaitProgress(p, d0.Quiescent)
		})
		eng.Go("receiver", func(p *sim.Proc) {
			d1.WaitProgress(p, func() bool { return h1.kept != nil })
			d1.AcceptRndv(p, h1.kept, dst)
			if !pulls {
				d1.regs.Invalidate(dst)
			}
			d1.WaitProgress(p, func() bool { return h1.rndvDone == 1 })
		})
		msg := panicOf(func() { eng.Run(sim.MaxTime) })
		eng.Close()
		want := "on node 1 was deregistered" // the receiver's region, looked up by the sender
		if pulls {
			want = "on node 0 was deregistered"
		}
		if !strings.Contains(msg, want) {
			t.Errorf("%v: RDMA on a deregistered region panicked with %q, want %q", fc.Kind, msg, want)
		}
	}
}

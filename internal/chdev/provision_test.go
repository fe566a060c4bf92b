package chdev

import (
	"bytes"
	"fmt"
	"testing"

	"ibflow/internal/core"
	"ibflow/internal/sim"
)

// TestSharedPoolEagerDelivery: the shared scheme must deliver eager
// traffic through the SRQ-backed pool with the same semantics as the
// per-connection schemes, and the device must expose the pool through
// its provisioner stats.
func TestSharedPoolEagerDelivery(t *testing.T) {
	eng, d0, d1, _, h1 := devPair(t, DefaultConfig(), core.Shared(8, 32))
	if pp, ok := d0.prov.(*poolProvisioner); !ok || pp.srq == nil || pp.pool == nil {
		t.Fatal("shared-scheme device built without SRQ/pool")
	}
	pp := d1.prov.(*poolProvisioner)
	rpool := pp.pool
	eng.Go("sender", func(p *sim.Proc) {
		for i := 0; i < 4; i++ {
			d0.Send(p, 1, i, 0, []byte(fmt.Sprintf("msg%d", i)), i, true)
		}
		d0.WaitProgress(p, d0.Quiescent)
	})
	eng.Go("receiver", func(p *sim.Proc) {
		d1.WaitProgress(p, func() bool { return len(h1.eager) == 4 })
	})
	if err := eng.Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}
	for i, m := range h1.eager {
		if !bytes.Equal(m, []byte(fmt.Sprintf("msg%d", i))) {
			t.Errorf("eager[%d] = %q", i, m)
		}
	}
	st := d1.Stats()
	if st.SumPosted != rpool.Posted() {
		t.Errorf("SumPosted = %d, want pool size %d", st.SumPosted, rpool.Posted())
	}
	if want := rpool.Posted() * bufSize; st.BufBytesHWM != want {
		t.Errorf("BufBytesHWM = %d, want %d", st.BufBytesHWM, want)
	}
	if n, taken := rpool.InUse(), pp.srq.Stats().Taken; n != 0 || taken != 4 {
		t.Errorf("pool has %d in use after %d SRQ takes, want 0 after 4", n, taken)
	}
	if err := Audit([]*Device{d0, d1}); err != nil {
		t.Errorf("audit after shared-pool run: %v", err)
	}
}

// TestSharedPoolGrowsOnLimitEvent: a burst deep enough to dip the SRQ
// below the watermark must fire the limit event and grow the pool,
// visible in device stats as LimitEvents/GrowthEvents and a raised HWM.
func TestSharedPoolGrowsOnLimitEvent(t *testing.T) {
	fc := core.Shared(4, 32) // watermark and step 1
	eng, d0, d1, _, h1 := devPair(t, DefaultConfig(), fc)
	const n = 24
	eng.Go("sender", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			d0.Send(p, 1, i, 0, make([]byte, 512), i, false)
		}
		d0.WaitProgress(p, d0.Quiescent)
	})
	eng.Go("receiver", func(p *sim.Proc) {
		d1.WaitProgress(p, func() bool { return len(h1.eager) == n })
	})
	if err := eng.Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}
	st := d1.Stats()
	if st.LimitEvents == 0 {
		t.Error("no SRQ limit events under a 24-message burst on a 4-buffer pool")
	}
	if st.GrowthEvents == 0 {
		t.Error("pool never grew despite limit events")
	}
	if st.MaxPosted <= fc.Prepost {
		t.Errorf("MaxPosted = %d, want > initial %d", st.MaxPosted, fc.Prepost)
	}
	if d1.prov.(*poolProvisioner).srq.Stats().LimitEvents == 0 {
		t.Error("SRQ recorded no limit events")
	}
	if err := Audit([]*Device{d0, d1}); err != nil {
		t.Errorf("audit after growth: %v", err)
	}
}

// TestSharedPoolAuditCatchesImbalance: the provisioner audit must flag a
// pooled buffer that never came back (the shared-shape credit leak).
func TestSharedPoolAuditCatchesImbalance(t *testing.T) {
	eng, d0, d1, _, h1 := devPair(t, DefaultConfig(), core.Shared(8, 32))
	eng.Go("sender", func(p *sim.Proc) {
		d0.Send(p, 1, 0, 0, []byte("x"), nil, true)
		d0.WaitProgress(p, d0.Quiescent)
	})
	eng.Go("receiver", func(p *sim.Proc) {
		d1.WaitProgress(p, func() bool { return len(h1.eager) == 1 })
	})
	if err := eng.Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}
	if err := Audit([]*Device{d0, d1}); err != nil {
		t.Fatalf("clean run must audit clean: %v", err)
	}
	d1.prov.(*poolProvisioner).pool.Take() // a descriptor in use at quiescence = leak
	if err := Audit([]*Device{d0, d1}); err == nil {
		t.Error("audit accepted a pool with a buffer still in use")
	}
}

// TestPerConnSchemesHaveNoSRQ: the seam must leave the three
// per-connection schemes on private receive queues.
func TestPerConnSchemesHaveNoSRQ(t *testing.T) {
	for _, fc := range []core.Params{core.Hardware(4), core.Static(4), core.Dynamic(2, 16)} {
		_, d0, _, _, _ := devPair(t, DefaultConfig(), fc)
		if d0.epAt(1, 0).qp.SRQ() != nil {
			t.Errorf("%v scheme built an SRQ/pool", fc.Kind)
		}
		if _, ok := d0.prov.(*connProvisioner); !ok {
			t.Errorf("%v scheme provisioner = %T", fc.Kind, d0.prov)
		}
	}
}

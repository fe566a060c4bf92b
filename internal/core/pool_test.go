package core

import (
	"testing"

	"ibflow/internal/sim"
)

func TestSharedConstructorValidates(t *testing.T) {
	p := Shared(16, 96)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if pl := NewPool(&p); p.Kind != KindShared || p.step() != 4 || pl.Watermark() != 4 {
		t.Errorf("Shared(16, 96) = %+v: step %d, watermark %d", p, p.step(), pl.Watermark())
	}
	if p.UserLevel() {
		t.Error("shared scheme must not be user-level (senders stay optimistic)")
	}
	if !p.SharedPool() {
		t.Error("SharedPool() false for KindShared")
	}
	small := Shared(1, 8)
	if small.step() != 1 {
		t.Errorf("Shared(1, 8) steps by %d, want floor of 1", small.step())
	}
}

func TestValidateRejectsBadSharedParams(t *testing.T) {
	cases := []Params{
		{Kind: KindShared, Prepost: 8, Max: 4},  // growth cap below start
		{Kind: KindShared, Prepost: 4},          // no cap at all
		{Kind: KindShared, Prepost: 0, Max: 16}, // no buffers at all
	}
	for i, p := range cases {
		p := p
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted %+v", i, p)
		}
	}
}

func newTestPool(t *testing.T, prepost, max int) *Pool {
	t.Helper()
	p := Shared(prepost, max)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	return NewPool(&p)
}

func TestPoolTakeProcessedRoundTrip(t *testing.T) {
	pl := newTestPool(t, 4, 16)
	if pl.Posted() != 4 || pl.InUse() != 0 {
		t.Fatalf("fresh pool: posted %d, in-use %d", pl.Posted(), pl.InUse())
	}
	pl.Take()
	pl.Take()
	if pl.InUse() != 2 {
		t.Fatalf("in-use after 2 takes = %d", pl.InUse())
	}
	pl.Processed()
	pl.Processed()
	if pl.InUse() != 0 {
		t.Fatalf("in-use after round trip = %d", pl.InUse())
	}
	st := pl.Stats()
	if st.Taken != 2 || st.Reposted != 2 {
		t.Errorf("stats = %+v, want Taken 2, Reposted 2", st)
	}
	pl.CheckInvariants()
}

func TestPoolProcessedWithoutTakePanics(t *testing.T) {
	pl := newTestPool(t, 4, 16)
	defer func() {
		if recover() == nil {
			t.Error("Processed with nothing in use did not panic")
		}
	}()
	pl.Processed()
}

func TestPoolGrowthClampedAndPaced(t *testing.T) {
	p := Shared(8, 13) // step 2, cooldown 10us
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	pl := NewPool(&p)
	if grow := pl.OnLimitEvent(0); grow != 2 || pl.Posted() != 10 {
		t.Fatalf("first event: grow %d, posted %d", grow, pl.Posted())
	}
	// Inside the cooldown window: the event is counted but grows nothing.
	if grow := pl.OnLimitEvent(5 * sim.Microsecond); grow != 0 {
		t.Fatalf("event within cooldown grew %d", grow)
	}
	if grow := pl.OnLimitEvent(20 * sim.Microsecond); grow != 2 || pl.Posted() != 12 {
		t.Fatalf("second growth: grow %d, posted %d", grow, pl.Posted())
	}
	// Final step is clamped to Max.
	if grow := pl.OnLimitEvent(40 * sim.Microsecond); grow != 1 || pl.Posted() != 13 {
		t.Fatalf("clamped growth: grow %d, posted %d", grow, pl.Posted())
	}
	// At Max: events keep counting, the pool stops growing.
	if grow := pl.OnLimitEvent(60 * sim.Microsecond); grow != 0 || pl.Posted() != 13 {
		t.Fatalf("event at max grew %d, posted %d", grow, pl.Posted())
	}
	st := pl.Stats()
	if st.LimitEvents != 5 || st.GrowthEvents != 3 || st.MaxPosted != 13 {
		t.Errorf("stats = %+v, want LimitEvents 5, GrowthEvents 3, MaxPosted 13", st)
	}
}

func TestNewPoolRejectsNonSharedScheme(t *testing.T) {
	p := Static(4)
	defer func() {
		if recover() == nil {
			t.Error("NewPool on a static scheme did not panic")
		}
	}()
	NewPool(&p)
}

func TestPoolCheckInvariantsCatchesCorruption(t *testing.T) {
	pl := newTestPool(t, 4, 16)
	pl.inUse = 5 //fclint:allow creditmut deliberate corruption to prove CheckInvariants catches it
	defer func() {
		if recover() == nil {
			t.Error("CheckInvariants accepted in-use > posted")
		}
	}()
	pl.CheckInvariants()
}

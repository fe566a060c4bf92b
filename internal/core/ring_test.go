package core

import "testing"

func TestRingReserveWraparound(t *testing.T) {
	r := NewRing(4)
	// Drive many rounds through a 4-slot ring: slot indices must cycle
	// 0..3 forever while the absolute counters keep climbing.
	var peer uint32
	for round := 0; round < 25; round++ {
		for i := 0; i < 4; i++ {
			if got := r.Free(); got != 4-i {
				t.Fatalf("round %d: free = %d, want %d", round, got, 4-i)
			}
			slot := r.Reserve()
			if want := (round*4 + i) % 4; slot != want {
				t.Fatalf("round %d: slot = %d, want %d", round, slot, want)
			}
		}
		if r.Free() != 0 {
			t.Fatalf("round %d: free = %d after filling, want 0", round, r.Free())
		}
		peer += 4
		if !r.SeenHead(peer) {
			t.Fatalf("round %d: SeenHead(%d) did not advance", round, peer)
		}
	}
	r.CheckInvariants()
}

func TestRingArrivedConsumedWraparound(t *testing.T) {
	r := NewRing(3)
	for i := 0; i < 20; i++ {
		slot := r.Arrived()
		if want := i % 3; slot != want {
			t.Fatalf("arrival %d: slot = %d, want %d", i, slot, want)
		}
		r.Consumed()
		if r.Unsynced() != i+1 {
			t.Fatalf("arrival %d: unsynced = %d, want %d", i, r.Unsynced(), i+1)
		}
	}
	if h := r.TakeHead(true); h != 20 {
		t.Fatalf("TakeHead = %d, want 20", h)
	}
	if r.Unsynced() != 0 {
		t.Fatalf("unsynced = %d after TakeHead, want 0", r.Unsynced())
	}
	r.CheckInvariants()
}

func TestRingSeenHeadMonotonicIdempotent(t *testing.T) {
	r := NewRing(8)
	for i := 0; i < 6; i++ {
		r.Reserve()
	}
	if !r.SeenHead(4) {
		t.Fatal("SeenHead(4) should advance from 0")
	}
	if r.Free() != 6 {
		t.Fatalf("free = %d, want 6", r.Free())
	}
	// Duplicate and stale updates (an ECM raced a piggyback) are no-ops.
	if r.SeenHead(4) {
		t.Fatal("duplicate SeenHead(4) should not advance")
	}
	if r.SeenHead(2) {
		t.Fatal("stale SeenHead(2) should not advance")
	}
	if r.Free() != 6 {
		t.Fatalf("free = %d after stale updates, want 6", r.Free())
	}
	if !r.SeenHead(6) {
		t.Fatal("SeenHead(6) should advance")
	}
	if r.Free() != 8 {
		t.Fatalf("free = %d, want 8", r.Free())
	}
}

func TestRingNeedSyncThreshold(t *testing.T) {
	r := NewRing(8) // threshold = 4
	for i := 0; i < 3; i++ {
		r.Arrived()
		r.Consumed()
	}
	if r.NeedSync() {
		t.Fatal("NeedSync with 3 unsynced on 8 slots, threshold 4")
	}
	r.Arrived()
	r.Consumed()
	if !r.NeedSync() {
		t.Fatal("no NeedSync with 4 unsynced on 8 slots")
	}
	r.TakeHead(false)
	if r.NeedSync() {
		t.Fatal("NeedSync right after TakeHead")
	}
	st := r.Stats()
	if st.Syncs != 1 {
		t.Fatalf("syncs = %d, want 1", st.Syncs)
	}

	// A 1-slot ring must sync after every consume or the sender
	// deadlocks.
	one := NewRing(1)
	one.Arrived()
	one.Consumed()
	if !one.NeedSync() {
		t.Fatal("1-slot ring must need sync after one consume")
	}
}

func TestRingOccupancyHWM(t *testing.T) {
	r := NewRing(4)
	r.Arrived()
	r.Arrived()
	r.Arrived()
	r.Consumed()
	r.Arrived()
	r.Arrived() // occupancy back to 4
	if hwm := r.Stats().OccupancyHWM; hwm != 4 {
		t.Fatalf("occupancy HWM = %d, want 4", hwm)
	}
}

func TestRingPanicsOnMisuse(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("NewRing(0)", func() { NewRing(0) })
	mustPanic("reserve past full", func() {
		r := NewRing(2)
		r.Reserve()
		r.Reserve()
		r.Reserve()
	})
	mustPanic("overrun arrivals", func() {
		r := NewRing(2)
		r.Arrived()
		r.Arrived()
		r.Arrived()
	})
	mustPanic("consume empty", func() {
		r := NewRing(2)
		r.Consumed()
	})
}

func TestRDMAParamsValidate(t *testing.T) {
	p := RDMA(8, 1024)
	if err := p.Validate(); err != nil {
		t.Fatalf("RDMA(8, 1024): %v", err)
	}
	if !p.RingChannel() || p.UserLevel() || p.SharedPool() {
		t.Fatalf("RDMA params misclassified: ring=%v user=%v shared=%v",
			p.RingChannel(), p.UserLevel(), p.SharedPool())
	}
	if p.Kind.String() != "rdma" {
		t.Fatalf("Kind string = %q, want rdma", p.Kind.String())
	}
	bad := RDMA(8, 32)
	if err := bad.Validate(); err == nil {
		t.Fatal("RDMA(8, 32) validated; slot size below 64 must fail")
	}
	none := RDMA(0, 1024)
	if err := none.Validate(); err == nil {
		t.Fatal("RDMA(0, 1024) validated; zero slots must fail")
	}
}

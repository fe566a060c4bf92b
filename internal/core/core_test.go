package core

import (
	"testing"

	"ibflow/internal/sim"
)

func TestConstructorsValidate(t *testing.T) {
	for _, p := range []Params{Hardware(10), Static(10), Dynamic(1, 100), Shared(16, 96)} {
		p := p
		if err := p.Validate(); err != nil {
			t.Errorf("%v: %v", p.Kind, err)
		}
	}
}

func TestValidateRejectsBadParams(t *testing.T) {
	cases := []Params{
		{Kind: KindStatic, Prepost: 0},
		{Kind: KindDynamic, Prepost: 10, Max: 5},
		{Kind: KindDynamic, Prepost: 1},
		{Kind: Kind(99), Prepost: 1},
		// A field the kind does not read would validate and never act,
		// and the spec could not print it.
		{Kind: KindHardware, Prepost: 4, Max: 9},
		{Kind: KindStatic, Prepost: 4, Max: 9},
		{Kind: KindRDMA, Prepost: 4, Max: 9, SlotBytes: 1024},
		{Kind: KindStatic, Prepost: 4, SlotBytes: 1024},
		{Kind: KindDynamic, Prepost: 1, Max: 10, SlotBytes: 1024},
		{Kind: KindShared, Prepost: 4, Max: 16, SlotBytes: 1024},
	}
	for i, p := range cases {
		p := p
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted %+v", i, p)
		}
	}
}

func TestKindStrings(t *testing.T) {
	if KindHardware.String() != "hardware" || KindStatic.String() != "static" ||
		KindDynamic.String() != "dynamic" || KindShared.String() != "shared" ||
		KindRDMA.String() != "rdma" {
		t.Error("kind strings wrong")
	}
	if ActionSend.String() != "send" || ActionDemote.String() != "demote" ||
		ActionBacklog.String() != "backlog" || ActionWait.String() != "wait" {
		t.Error("action strings wrong")
	}
}

func TestHardwareNeverBlocks(t *testing.T) {
	p := Hardware(1)
	vc := NewVC(&p)
	for i := 0; i < 1000; i++ {
		if a := vc.DecideEager(true); a != ActionSend {
			t.Fatalf("hardware decision %d = %v", i, a)
		}
	}
	if vc.NeedECM() {
		t.Error("hardware scheme must never want an ECM")
	}
	vc.BufferProcessed(true, 0)
	if vc.Owed() != 0 {
		t.Errorf("hardware scheme owes %d credits", vc.Owed())
	}
}

func TestStaticConsumesAndDemotes(t *testing.T) {
	p := Static(3)
	vc := NewVC(&p)
	for i := 0; i < 3; i++ {
		if a := vc.DecideEager(true); a != ActionSend {
			t.Fatalf("send %d = %v, want send", i, a)
		}
	}
	if vc.Credits() != 0 {
		t.Fatalf("credits = %d, want 0", vc.Credits())
	}
	if a := vc.DecideEager(true); a != ActionDemote {
		t.Fatalf("starved send = %v, want demote", a)
	}
	vc.AddCredits(1)
	if a := vc.DecideEager(true); a != ActionSend {
		t.Fatalf("after credit return = %v, want send", a)
	}
	st := vc.Stats()
	if st.EagerSent != 4 || st.Demoted != 1 {
		t.Errorf("stats = %+v", st)
	}
}

// TestNonBlockingSendsQueueFIFO: a non-blocking send that finds no credit
// cannot wait out a handshake, so it joins the backlog, which drains one
// entry per returned credit.
func TestNonBlockingSendsQueueFIFO(t *testing.T) {
	p := Static(2)
	vc := NewVC(&p)
	vc.DecideEager(false)
	vc.DecideEager(false)
	for i := 0; i < 3; i++ {
		if a := vc.DecideEager(false); a != ActionBacklog {
			t.Fatalf("decision = %v, want backlog", a)
		}
	}
	if vc.BacklogLen() != 3 {
		t.Fatalf("backlog = %d", vc.BacklogLen())
	}
	if vc.CanDrainBacklog() {
		t.Fatal("drained without credits")
	}
	vc.AddCredits(2)
	if !vc.CanDrainBacklog() || !vc.CanDrainBacklog() {
		t.Fatal("failed to drain with credits")
	}
	if vc.CanDrainBacklog() {
		t.Fatal("drained a third message with two credits")
	}
	if vc.BacklogLen() != 1 {
		t.Fatalf("backlog = %d, want 1", vc.BacklogLen())
	}
}

func TestBacklogForcesOrderEvenWithDemotion(t *testing.T) {
	// Once anything is backlogged, later sends must not overtake it: not
	// with credits back, and not by demoting a blocking send.
	p := Static(1)
	vc := NewVC(&p)
	vc.DecideEager(false) // consumes the only credit
	if a := vc.DecideEager(false); a != ActionBacklog {
		t.Fatalf("= %v", a)
	}
	if a := vc.DecideEager(true); a != ActionBacklog {
		t.Fatalf("blocking send demoted past a non-empty backlog: %v", a)
	}
	vc.AddCredits(5)
	if a := vc.DecideEager(false); a != ActionBacklog {
		t.Fatalf("send overtook a non-empty backlog: %v", a)
	}
}

func TestPiggybackAndECMAccounting(t *testing.T) {
	p := Static(10)
	vc := NewVC(&p)
	for i := 0; i < 4; i++ {
		vc.BufferProcessed(true, 0)
	}
	vc.BufferProcessed(false, 0) // control message: no credit owed
	if vc.Owed() != 4 {
		t.Fatalf("owed = %d, want 4", vc.Owed())
	}
	if vc.NeedECM() {
		t.Error("ECM below threshold 5")
	}
	vc.BufferProcessed(true, 0)
	if !vc.NeedECM() {
		t.Error("ECM wanted at threshold 5")
	}
	if n := vc.TakeECM(); n != 5 {
		t.Errorf("TakeECM = %d, want 5", n)
	}
	if vc.Owed() != 0 || vc.NeedECM() {
		t.Error("owed not cleared")
	}
	vc.BufferProcessed(true, 0)
	if n := vc.TakePiggyback(); n != 1 {
		t.Errorf("TakePiggyback = %d, want 1", n)
	}
	st := vc.Stats()
	if st.ECMsSent != 1 || st.CreditsByECM != 5 || st.CreditsPiggy != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestECMThresholdCappedByPrepost(t *testing.T) {
	p := Static(1) // threshold 5 would never fire
	vc := NewVC(&p)
	vc.BufferProcessed(true, 0)
	if !vc.NeedECM() {
		t.Error("prepost=1 must return its single credit eagerly")
	}
}

func TestDynamicGrowthLinear(t *testing.T) {
	p := Dynamic(1, 10)
	vc := NewVC(&p)
	if g := vc.OnStarvedFeedback(0); g != 2 {
		t.Fatalf("grow = %d, want 2", g)
	}
	if vc.Posted() != 3 || vc.Owed() != 2 {
		t.Fatalf("posted = %d owed = %d", vc.Posted(), vc.Owed())
	}
	for i := 0; i < 10; i++ {
		vc.OnStarvedFeedback(0)
	}
	if vc.Posted() != 10 {
		t.Fatalf("posted = %d, want capped at 10", vc.Posted())
	}
	if g := vc.OnStarvedFeedback(0); g != 0 {
		t.Fatalf("grow at cap = %d, want 0", g)
	}
	if vc.Stats().MaxPosted != 10 {
		t.Errorf("MaxPosted = %d", vc.Stats().MaxPosted)
	}
}

func TestCooldownPacesGrowth(t *testing.T) {
	p := Dynamic(1, 100) // cooldown 10us
	vc := NewVC(&p)
	if g := vc.OnStarvedFeedback(sim.Microsecond); g == 0 {
		t.Fatal("first feedback must grow")
	}
	if g := vc.OnStarvedFeedback(2 * sim.Microsecond); g != 0 {
		t.Fatalf("feedback inside the cooldown grew by %d", g)
	}
	if g := vc.OnStarvedFeedback(20 * sim.Microsecond); g == 0 {
		t.Fatal("feedback after the cooldown must grow")
	}
	if vc.Stats().GrowthEvents != 2 {
		t.Errorf("growth events = %d, want 2", vc.Stats().GrowthEvents)
	}
}

func TestStaticNeverGrows(t *testing.T) {
	p := Static(4)
	vc := NewVC(&p)
	if g := vc.OnStarvedFeedback(0); g != 0 {
		t.Errorf("static grew by %d", g)
	}
	if vc.Posted() != 4 {
		t.Errorf("posted = %d", vc.Posted())
	}
}

func TestCheckInvariantsCatchesCorruption(t *testing.T) {
	p := Static(2)
	for _, tc := range []struct {
		name    string
		corrupt func(vc *VC)
	}{
		{"negative credits", func(vc *VC) {
			vc.credits = -1 //fclint:allow creditmut deliberate corruption to prove CheckInvariants catches it
		}},
		{"owed beyond posted", func(vc *VC) {
			vc.owed = vc.posted + 1 //fclint:allow creditmut deliberate corruption to prove CheckInvariants catches it
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			vc := NewVC(&p)
			vc.CheckInvariants() // healthy
			tc.corrupt(vc)
			defer func() {
				if recover() == nil {
					t.Errorf("no panic on %s", tc.name)
				}
			}()
			vc.CheckInvariants()
		})
	}
}

// TestRingVCDecisions walks a ring VC through the decision calls the
// device makes, one step per row: on the ring a free slot is the credit
// and the peer's head is what comes back.
func TestRingVCDecisions(t *testing.T) {
	p := RDMA(2, 1024)
	vc := NewVC(&p)
	send := func() { vc.RingOut().Reserve() } // what the device does on ActionSend
	steps := []struct {
		name string
		do   func() bool
		want Stats // counters after the step
	}{
		{"send while a slot is free", func() bool {
			ok := vc.DecideEager(true) == ActionSend
			send()
			return ok && vc.DecideEager(false) == ActionSend
		}, Stats{EagerSent: 2, MaxPosted: 2}},
		{"a blocking sender waits on a full ring and moves no counter", func() bool {
			send()
			return !vc.SendReady() && vc.DecideEager(true) == ActionWait && vc.BacklogLen() == 0
		}, Stats{EagerSent: 2, MaxPosted: 2}},
		{"an RTS in front of an empty backlog goes out, full ring or not", func() bool {
			consumed, queue := vc.DecideRTS()
			return !consumed && !queue
		}, Stats{EagerSent: 2, MaxPosted: 2}},
		{"a non-blocking sender queues", func() bool {
			return vc.DecideEager(false) == ActionBacklog && vc.BacklogLen() == 1
		}, Stats{EagerSent: 2, Backlogged: 1, MaxPosted: 2}},
		{"behind a backlog everything queues, blocking or not, RTS too", func() bool {
			_, queue := vc.DecideRTS()
			return vc.DecideEager(true) == ActionBacklog && queue && vc.BacklogLen() == 3
		}, Stats{EagerSent: 2, Backlogged: 3, MaxPosted: 2}},
		{"no drain at Free() == 0, nor for a stale head", func() bool {
			return !vc.CanDrainBacklog() && !vc.Returned(0, 0) && !vc.CanDrainBacklog()
		}, Stats{EagerSent: 2, Backlogged: 3, MaxPosted: 2}},
		{"a returned head reopens the drain", func() bool {
			ok := vc.Returned(0, 1) && vc.CanDrainBacklog()
			send()
			return ok && !vc.CanDrainBacklog() && vc.BacklogLen() == 2
		}, Stats{EagerSent: 3, Backlogged: 3, MaxPosted: 2}},
		{"a queued RTS drains without a slot and is not an eager send", func() bool {
			consumed, ok := vc.DrainRTS()
			return !consumed && ok && vc.RingOut().Free() == 0 && vc.BacklogLen() == 1
		}, Stats{EagerSent: 3, Backlogged: 3, MaxPosted: 2}},
	}
	for _, st := range steps {
		if !st.do() {
			t.Fatalf("%s: wrong answer", st.name)
		}
		if got := vc.Stats(); got != st.want {
			t.Fatalf("%s: stats = %+v, want %+v", st.name, got, st.want)
		}
		vc.CheckInvariants()
	}
	if _, ok := NewVC(&p).DrainRTS(); ok {
		t.Error("DrainRTS drained an empty backlog")
	}
}

// TestDrainRTSPerKind pins what draining a backlogged RTS costs and
// counts under each scheme that backlogs: a credit only where there are
// credits, and an EagerSent everywhere but on the ring (the send/recv
// schemes drain an RTS through the eager gate; Table 1's eager column has
// always included it). The schemes with neither credits nor a ring never
// backlog, so an RTS never waits there.
func TestDrainRTSPerKind(t *testing.T) {
	for _, tc := range []struct {
		p         Params
		piggyback int    // what the peer returns: credits...
		head      uint32 // ...or its ring head
		consumed  bool
		eagerSent uint64
	}{
		{Static(4), 2, 0, true, 1},
		{Dynamic(4, 16), 2, 0, true, 1},
		{RDMA(4, 1024), 0, 1, false, 0},
	} {
		if err := tc.p.Validate(); err != nil {
			t.Fatal(err)
		}
		vc := NewVC(&tc.p)
		send := func() { // what the device does on ActionSend or a drain
			if tc.p.RingChannel() {
				vc.RingOut().Reserve()
			}
		}
		// Spend every credit or slot, so that an eager send queues...
		for vc.DecideEager(false) == ActionSend {
			send()
		}
		if _, queue := vc.DecideRTS(); !queue {
			t.Fatalf("%v: RTS overtook the backlog", tc.p.Kind)
		}
		if vc.CanDrainBacklog() {
			t.Fatalf("%v: eager entry drained with nothing returned", tc.p.Kind)
		}
		// ...and drains first once the peer gives something back.
		if !vc.Returned(tc.piggyback, tc.head) || !vc.CanDrainBacklog() {
			t.Fatalf("%v: eager entry did not drain", tc.p.Kind)
		}
		send()
		before := vc.Stats().EagerSent
		consumed, ok := vc.DrainRTS()
		if !ok || consumed != tc.consumed {
			t.Errorf("%v: DrainRTS = (%v, %v), want (%v, true)", tc.p.Kind, consumed, ok, tc.consumed)
		}
		if got := vc.Stats().EagerSent - before; got != tc.eagerSent {
			t.Errorf("%v: a drained RTS counted %d eager sends, want %d", tc.p.Kind, got, tc.eagerSent)
		}
		if vc.BacklogLen() != 0 {
			t.Errorf("%v: backlog %d after draining both entries", tc.p.Kind, vc.BacklogLen())
		}
	}
	for _, p := range []Params{Hardware(4), Shared(4, 16)} {
		if err := p.Validate(); err != nil {
			t.Fatal(err)
		}
		vc := NewVC(&p)
		if a := vc.DecideEager(false); a != ActionSend {
			t.Errorf("%v: a non-blocking eager send got %v, want send", p.Kind, a)
		}
		if _, queue := vc.DecideRTS(); queue {
			t.Errorf("%v: an RTS queued", p.Kind)
		}
	}
	// At zero credits a user-level RTS stays queued.
	p := Static(1)
	vc := NewVC(&p)
	vc.DecideEager(false)
	if _, queue := vc.DecideRTS(); !queue {
		t.Fatal("RTS sent without a credit")
	}
	if _, ok := vc.DrainRTS(); ok {
		t.Error("RTS drained without a credit")
	}
}

// TestReturnSideAnswersPerKind: what a VC still has to give back, and
// when that is worth a message of its own, comes from the owed credits or
// from the inbound ring, whichever the scheme has.
func TestReturnSideAnswersPerKind(t *testing.T) {
	p := RDMA(4, 1024)
	vc := NewVC(&p)
	in := vc.RingIn()
	for i := 1; i <= 4; i++ {
		in.Arrived()
		in.Consumed()
		if vc.NeedECM() != in.NeedSync() || vc.Unreturned() != i {
			t.Fatalf("after %d slots: NeedECM %v (NeedSync %v), Unreturned %d",
				i, vc.NeedECM(), in.NeedSync(), vc.Unreturned())
		}
	}
	if !vc.NeedECM() {
		t.Error("a fully consumed, unannounced ring wants no sync")
	}
	if h := vc.PiggybackHead(); h != 4 || vc.Unreturned() != 0 || vc.NeedECM() {
		t.Errorf("piggybacked head %d, then Unreturned %d, NeedECM %v", h, vc.Unreturned(), vc.NeedECM())
	}
	if in.Stats().HeadsPiggybacked != 1 || in.Stats().Syncs != 0 {
		t.Errorf("ring stats = %+v, want one piggybacked head", in.Stats())
	}

	for _, p := range []Params{Hardware(4), Static(4), Dynamic(4, 16), Shared(4, 16)} {
		if err := p.Validate(); err != nil {
			t.Fatal(err)
		}
		vc := NewVC(&p)
		vc.BufferProcessed(true, 0)
		if vc.Unreturned() != vc.Owed() || vc.PiggybackHead() != 0 {
			t.Errorf("%v: Unreturned %d (owed %d), PiggybackHead %d",
				p.Kind, vc.Unreturned(), vc.Owed(), vc.PiggybackHead())
		}
		if vc.Returned(0, 7) || !vc.Returned(2, 7) {
			t.Errorf("%v: only a positive piggyback returns anything off the ring", p.Kind)
		}
	}
}

func TestNewVCKeepsRingSlotCheck(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("a ring VC with no slots was built")
		}
	}()
	NewVC(&Params{Kind: KindRDMA, SlotBytes: 1024})
}

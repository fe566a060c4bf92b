package fault

import (
	"testing"

	"ibflow/internal/sim"
	"ibflow/internal/trace"
)

func testConfig(seed uint64) Config {
	return Config{Seed: seed, JitterPct: 50, OutageCount: 3, ECMDropPct: 40,
		ECMDupPct: 30, RNRForcePct: 30, AckDelayPct: 20}
}

// bound builds a plan from cfg and binds it to an untraced fabric of
// nodes adapters, as NewFabric does.
func bound(cfg Config, nodes int) *Plan {
	p := New(cfg)
	p.Bind(nodes, nil)
	return p
}

// drive exercises every injection hook in a fixed call order and returns
// the resulting stats (what the sim's serialized event loop guarantees).
func drive(p *Plan) Stats {
	for i := 0; i < 200; i++ {
		now := sim.Time(i) * 20 * sim.Microsecond
		p.MessageDelay(now, i%4, (i+1)%4, 128)
		p.ForceRNR(now, i%4)
		p.AckDelay(now)
		p.DropECM(now, i%4, (i+2)%4)
		p.DuplicateECM(now, i%4, (i+3)%4)
	}
	return p.Stats()
}

func TestSameSeedSameSchedule(t *testing.T) {
	a, b := bound(testConfig(42), 4), bound(testConfig(42), 4)
	oa, ob := a.outages, b.outages
	if len(oa) != 3 {
		t.Fatalf("outages = %d, want 3", len(oa))
	}
	for i := range oa {
		if oa[i] != ob[i] {
			t.Errorf("outage %d differs: %+v vs %+v", i, oa[i], ob[i])
		}
	}
	sa, sb := drive(a), drive(b)
	if sa != sb {
		t.Errorf("stats diverge for one seed:\n%+v\n%+v", sa, sb)
	}
	if sa.Jitters == 0 || sa.ForcedRNRs == 0 || sa.ECMDrops == 0 ||
		sa.ECMDups == 0 || sa.AckDelays == 0 {
		t.Errorf("a hook never fired under driving load: %+v", sa)
	}
}

func TestDifferentSeedsDiverge(t *testing.T) {
	sa := drive(bound(testConfig(1), 4))
	sb := drive(bound(testConfig(2), 4))
	if sa == sb {
		t.Error("distinct seeds produced identical injection stats")
	}
}

func TestZeroConfigInjectsNothing(t *testing.T) {
	p := bound(Config{Seed: 7}, 4)
	if d := p.MessageDelay(0, 0, 1, 64); d != 0 {
		t.Errorf("MessageDelay = %v, want 0", d)
	}
	if s := drive(p); s != (Stats{}) {
		t.Errorf("zero config injected faults: %+v", s)
	}
}

func TestOutageDelaysCoveredTraffic(t *testing.T) {
	cfg := Config{Seed: 3, OutageCount: 1}
	p := bound(cfg, 2)
	o := p.outages[0]
	mid := o.Start + (o.End-o.Start)/2
	// Traffic touching the downed node waits out the window...
	if d := p.MessageDelay(mid, o.Node, 1-o.Node, 64); d < o.End-mid {
		t.Errorf("delay %v does not clear outage ending at %v (from %v)", d, o.End, mid)
	}
	// ...and traffic after the window sails through (jitter is off; a
	// fresh plan, so the FIFO clamp from the delayed message above does
	// not apply).
	p2 := bound(cfg, 2)
	if d := p2.MessageDelay(o.End, o.Node, 1-o.Node, 64); d != 0 {
		t.Errorf("post-outage delay = %v, want 0", d)
	}
}

func TestMessageDelayPreservesPairFIFO(t *testing.T) {
	p := bound(testConfig(5), 4)
	var last sim.Time
	for i := 0; i < 500; i++ {
		now := sim.Time(i) * 3 * sim.Microsecond
		exit := now + p.MessageDelay(now, 1, 2, 256)
		if exit <= last && i > 0 {
			t.Fatalf("message %d reordered on pair 1->2: exit %v after previous %v", i, exit, last)
		}
		last = exit
	}
	if p.Stats().Jitters == 0 {
		t.Fatal("jitter never fired; FIFO clamp untested")
	}
}

func TestOutagesRecordedInTrace(t *testing.T) {
	buf := trace.NewBuffer(16)
	p := New(Config{Seed: 9, OutageCount: 2})
	if buf.Total() != 0 || len(p.outages) != 0 {
		t.Fatal("an unbound plan drew or traced its outages")
	}
	p.Bind(4, buf)
	evs := buf.Events()
	if len(evs) != 2 {
		t.Fatalf("trace has %d events, want 2", len(evs))
	}
	for _, e := range evs {
		if e.Kind != trace.LinkOutage || e.Arg <= 0 || e.Rank < 0 || e.Rank >= 4 {
			t.Errorf("bad outage event %+v", e)
		}
	}
}

func TestSecondBindPanics(t *testing.T) {
	p := bound(testConfig(1), 4)
	defer func() {
		if recover() == nil {
			t.Error("no panic binding a plan twice")
		}
	}()
	p.Bind(4, nil)
}

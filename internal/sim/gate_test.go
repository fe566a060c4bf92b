package sim

import (
	"strings"
	"testing"
)

// TestGateReleaseResumesInline pins the gate's defining property: Release
// runs the parked process synchronously inside the releasing event — no
// wakeup event, no time advance, and the releaser sees the process's
// side effects before its own event returns.
func TestGateReleaseResumesInline(t *testing.T) {
	e := NewEngine()
	g := NewGate(e)
	var order []string
	e.Go("waiter", func(p *Proc) {
		g.Wait(p)
		order = append(order, "woke")
		if p.Now() != 100 {
			t.Errorf("woke at %v, want 100", p.Now())
		}
	})
	e.At(100, func() {
		if !g.Waiting() {
			t.Fatal("no waiter at release time")
		}
		pending := e.Pending()
		g.Release()
		order = append(order, "released")
		if e.Pending() != pending {
			t.Errorf("Release scheduled %d event(s); must resume inline",
				e.Pending()-pending)
		}
	})
	if err := e.Run(MaxTime); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "woke" || order[1] != "released" {
		t.Errorf("order = %v, want [woke released]", order)
	}
	if g.Waiting() {
		t.Error("gate still waiting after release")
	}
}

// TestGateRepeatedSessions exercises the request/completion cycle the
// progress machines use: the same process parks and is released many
// times, each costing exactly one dispatch.
func TestGateRepeatedSessions(t *testing.T) {
	e := NewEngine()
	g := NewGate(e)
	const rounds = 5
	wokeAt := []Time{}
	var proc *Proc
	proc = e.Go("requester", func(p *Proc) {
		for i := 0; i < rounds; i++ {
			g.Wait(p)
			wokeAt = append(wokeAt, p.Now())
		}
	})
	for i := 1; i <= rounds; i++ {
		e.At(Time(i*10), func() { g.Release() })
	}
	if err := e.Run(MaxTime); err != nil {
		t.Fatal(err)
	}
	if len(wokeAt) != rounds {
		t.Fatalf("woke %d times, want %d", len(wokeAt), rounds)
	}
	for i, at := range wokeAt {
		if at != Time((i+1)*10) {
			t.Errorf("round %d woke at %v, want %v", i, at, (i+1)*10)
		}
	}
	// Spawn start + one resume per release.
	if got := proc.Dispatches(); got != rounds+1 {
		t.Errorf("dispatches = %d, want %d (1 spawn + %d releases)", got, rounds+1, rounds)
	}
}

func TestGateDoubleWaitPanics(t *testing.T) {
	e := NewEngine()
	g := NewGate(e)
	e.Go("first", func(p *Proc) { g.Wait(p) })
	e.Go("second", func(p *Proc) {
		defer func() {
			r := recover()
			if r == nil {
				t.Error("second Wait did not panic")
			} else if !strings.Contains(r.(string), "already waiting") {
				t.Errorf("panic = %v", r)
			}
			// Unblock the run: release the first waiter... we cannot from
			// here (process context); just let Close unwind everything.
		}()
		g.Wait(p)
	})
	// The run deadlocks by construction (first waiter never released);
	// Close unwinds the parked process.
	_ = e.Run(MaxTime)
	e.Close()
}

func TestGateReleaseWithoutWaiterPanics(t *testing.T) {
	e := NewEngine()
	g := NewGate(e)
	defer func() {
		if recover() == nil {
			t.Error("Release without waiter did not panic")
		}
	}()
	g.Release()
}

package sim

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// The process lifecycle on runtime coroutines: what Close, a panic and a
// nested dispatch do is specified here, not inherited from iter.Pull by
// accident. Each test fails or hangs if the semantics drift.
//
// Unwinding is synchronous, so "no goroutine leaked" is checked right
// after Close with no retry loop — but only as "not more than before":
// the previous test's own goroutine may still be exiting when a test
// samples its baseline, so an exact count would flake.

// TestCloseUnwindsParkedAndUnstarted: Close runs the deferred functions of
// every parked process (rank mains release what they hold), lets a process
// that was never dispatched exit without running, and has returned every
// coroutine's goroutine by the time it returns.
func TestCloseUnwindsParkedAndUnstarted(t *testing.T) {
	before := runtime.NumGoroutine()
	e := NewEngine()
	var unwound []string
	e.Go("rank", func(p *Proc) {
		defer func() { unwound = append(unwound, "rank:outer") }()
		// A deferred function that blocks again must keep unwinding.
		defer p.Sleep(1)
		defer func() { unwound = append(unwound, "rank:inner") }()
		parkForever(p)
		t.Error("rank resumed after Close")
	})
	e.Go("late-parker", func(p *Proc) {
		defer func() { unwound = append(unwound, "late-parker") }()
		p.Sleep(10)
		parkForever(p)
	})
	var de *DeadlockError
	if err := e.Run(MaxTime); !errors.As(err, &de) {
		t.Fatalf("Run = %v, want DeadlockError (rank is parked for good)", err)
	}
	started := false
	late := e.Go("unstarted", func(p *Proc) {
		started = true
		defer func() { unwound = append(unwound, "unstarted") }()
	})
	e.Close()
	if want := []string{"rank:inner", "rank:outer", "late-parker"}; !slices.Equal(unwound, want) {
		t.Errorf("deferred functions ran as %v, want %v", unwound, want)
	}
	if started || late.Dispatches() != 0 {
		t.Error("a never-dispatched process must exit without running")
	}
	if got := runtime.NumGoroutine(); got > before {
		t.Errorf("%d goroutine(s) outlive Close; it must return only once every process is gone", got-before)
	}
	e.Close() // idempotent
}

// TestProcPanicSurfacesFromRun: a panic in a process comes out of Run on
// the caller's goroutine with its original value — whoever runs the world
// can attribute it — and leaves an engine that Close can still tear down.
func TestProcPanicSurfacesFromRun(t *testing.T) {
	before := runtime.NumGoroutine()
	e := NewEngine()
	boom := errors.New("rank 1: boom")
	bystanderUnwound, badUnwound := false, false
	e.Go("bystander", func(p *Proc) {
		defer func() { bystanderUnwound = true }()
		parkForever(p)
	})
	e.Go("bad", func(p *Proc) {
		defer func() { badUnwound = true }()
		p.Sleep(5)
		panic(boom)
	})
	var got any
	func() {
		defer func() { got = recover() }()
		err := e.Run(MaxTime)
		t.Errorf("Run returned %v, want the process's panic", err)
	}()
	if got != any(boom) {
		t.Fatalf("Run panicked with %v, want the original value %v", got, boom)
	}
	if !badUnwound {
		t.Error("the panicking process's deferred functions did not run")
	}
	if bystanderUnwound {
		t.Error("a parked bystander must stay parked until Close")
	}
	e.Close()
	if !bystanderUnwound {
		t.Error("Close after a process panic did not unwind the parked bystander")
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("%d goroutine(s) leaked after panic + Close", n-before)
	}
}

// TestCloseFromInsideProcessPanics: a process cannot unwind the stack it
// is standing on, so Close from process context is a loud bug, and it
// must not leave the engine half-closed.
func TestCloseFromInsideProcessPanics(t *testing.T) {
	e := NewEngine()
	msg := ""
	e.Go("self", func(p *Proc) {
		defer func() { msg = fmt.Sprint(recover()) }()
		e.Close()
	})
	unwound := false
	e.Go("parked", func(p *Proc) {
		defer func() { unwound = true }()
		parkForever(p)
	})
	var de *DeadlockError
	if err := e.Run(MaxTime); !errors.As(err, &de) || !slices.Equal(de.Blocked, []string{"parked"}) {
		t.Fatalf("Run = %v, want a deadlock naming only the parked process", err)
	}
	if want := `sim: Close called from inside running process "self"`; msg != want {
		t.Errorf("Close inside a process panicked with %q, want %q", msg, want)
	}
	if unwound {
		t.Error("the refused Close unwound a parked process")
	}
	e.Close()
	if !unwound {
		t.Error("Close from outside did nothing: the refused Close must not mark the engine closed")
	}
}

// TestGateReleaseNestsInsideProcess is the shape of a rank main stepping
// its progress machine inline: the handler that calls Release runs on a
// process's stack, not the engine's. The released process must run, park
// again, and hand control back to the releaser — to any depth — and the
// releaser's own park must still reach the engine afterwards.
func TestGateReleaseNestsInsideProcess(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	gB, gC := NewGate(e), NewGate(e)
	var log []string
	var pA, pB, pC *Proc
	pC = e.Go("C", func(p *Proc) {
		for i := 1; i <= 2; i++ {
			gC.Wait(p)
			log = append(log, fmt.Sprintf("C%d@%v", i, p.Now()))
		}
	})
	pB = e.Go("B", func(p *Proc) {
		for i := 1; i <= 2; i++ {
			gB.Wait(p)
			log = append(log, fmt.Sprintf("B%d@%v", i, p.Now()))
			gC.Release() // two levels down from the engine
			if e.cur != p {
				t.Errorf("after a nested Release the current process is %v, want B", e.cur)
			}
			log = append(log, fmt.Sprintf("B%d:back", i))
		}
	})
	pA = e.Go("A", func(p *Proc) {
		for i := 1; i <= 2; i++ {
			p.Sleep(10)
			log = append(log, fmt.Sprintf("A%d@%v", i, p.Now()))
			gB.Release()
			if e.cur != p {
				t.Errorf("after Release the current process is %v, want A", e.cur)
			}
			log = append(log, fmt.Sprintf("A%d:back", i))
		}
	})
	if err := e.Run(MaxTime); err != nil {
		t.Fatal(err)
	}
	want := "A1@10ns B1@10ns C1@10ns B1:back A1:back A2@20ns B2@20ns C2@20ns B2:back A2:back"
	if got := strings.Join(log, " "); got != want {
		t.Errorf("nested release order:\n got %s\nwant %s", got, want)
	}
	// A: its spawn only — nothing else is due before either of its wakes,
	// so both sleeps wake in place. B and C: spawn + one resume per
	// Release: nested resumes are dispatches, not events.
	for _, c := range []struct {
		p    *Proc
		want uint64
	}{{pA, 1}, {pB, 3}, {pC, 3}} {
		if got := c.p.Dispatches(); got != c.want {
			t.Errorf("%s: %d dispatches, want %d", c.p.Name(), got, c.want)
		}
	}
	if e.EventsFired() != 5 {
		t.Errorf("%d events fired, want 5 (3 spawns + A's 2 sleeps): a nested Release schedules nothing", e.EventsFired())
	}
}

// TestNestedPanicSurfacesFromRun: a panic two resumes deep unwinds every
// process it passes through and still reaches Run's caller unchanged.
func TestNestedPanicSurfacesFromRun(t *testing.T) {
	e := NewEngine()
	g := NewGate(e)
	boom := errors.New("inner boom")
	outerUnwound := false
	e.Go("inner", func(p *Proc) {
		g.Wait(p)
		panic(boom)
	})
	e.Go("outer", func(p *Proc) {
		defer func() { outerUnwound = true }()
		p.Sleep(1)
		g.Release()
		t.Error("Release returned although the released process panicked")
	})
	var got any
	func() {
		defer func() { got = recover() }()
		_ = e.Run(MaxTime)
	}()
	if got != any(boom) {
		t.Errorf("Run panicked with %v, want %v", got, boom)
	}
	if !outerUnwound {
		t.Error("the releasing process was not unwound by the panic passing through it")
	}
	e.Close()
}

// TestDeadlockErrorText pins the full report for two parked ranks:
// torture-run triage reads this line.
func TestDeadlockErrorText(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	e.Go("rank1", func(p *Proc) {
		p.Sleep(5)
		parkForever(p)
	})
	e.Go("rank0", parkForever)
	err := e.Run(MaxTime)
	want := "sim: deadlock at 5ns after 3 event(s): 2 process(es) blocked forever: [rank0 rank1]"
	if err == nil || err.Error() != want {
		t.Errorf("Run = %v\nwant %s", err, want)
	}
}

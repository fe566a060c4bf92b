package sim

import (
	"testing"
	"unsafe"
)

func TestAtCancelFires(t *testing.T) {
	e := NewEngine()
	var fired []Time
	e.AtCancel(10, func() { fired = append(fired, e.Now()) })
	if err := e.Run(MaxTime); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 1 || fired[0] != 10 {
		t.Fatalf("fired = %v, want [10ns]", fired)
	}
	if e.EventsFired() != 1 {
		t.Fatalf("EventsFired = %d, want 1", e.EventsFired())
	}
}

func TestCancelledEventDoesNotAdvanceClock(t *testing.T) {
	e := NewEngine()
	e.At(5, func() {})
	s := e.AtCancel(100, func() { t.Fatal("cancelled event ran") })
	s.Cancel()
	if err := e.Run(MaxTime); err != nil {
		t.Fatal(err)
	}
	if e.Now() != 5 {
		t.Fatalf("now = %v, want 5ns (cancelled event must not advance the clock)", e.Now())
	}
	if e.EventsFired() != 1 {
		t.Fatalf("EventsFired = %d, want 1", e.EventsFired())
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending = %d, want 0 (cancelled event drained)", e.Pending())
	}
}

func TestCancelledEventDrainedPastLimit(t *testing.T) {
	e := NewEngine()
	e.At(5, func() {})
	s := e.AtCancel(1000, func() {})
	s.Cancel()
	if err := e.Run(10); err != nil {
		t.Fatal(err)
	}
	// The cancelled event was scheduled beyond the limit; Run must still
	// discard it so callers checking Pending() see no phantom work.
	if e.Pending() != 0 {
		t.Fatalf("Pending = %d, want 0", e.Pending())
	}
}

func TestCancelAfterFiringIsHarmless(t *testing.T) {
	e := NewEngine()
	n := 0
	s := e.AtCancel(1, func() { n++ })
	if err := e.Run(MaxTime); err != nil {
		t.Fatal(err)
	}
	s.Cancel() // late cancel of an already-fired event: no effect
	var zero Scheduled
	zero.Cancel() // zero handle: no-op
	if n != 1 {
		t.Fatalf("callback ran %d times, want 1", n)
	}
}

func TestStepsSkipsCancelled(t *testing.T) {
	e := NewEngine()
	s := e.AtCancel(1, func() {})
	e.At(2, func() {})
	s.Cancel()
	if ran := e.Steps(10); ran != 1 {
		t.Fatalf("Steps ran %d events, want 1 (cancelled event is not a step)", ran)
	}
	if e.Now() != 2 {
		t.Fatalf("now = %v, want 2ns", e.Now())
	}
}

// An event struct is back in the pool before its callback runs, so a
// handle can be cancelled at three moments after its event fired: inside
// the callback itself, later but before the struct is handed out again,
// and after it was. None may touch the event that takes the struct next.
func TestCancelAfterFiringNeverKillsTheNextEvent(t *testing.T) {
	for _, when := range []string{"inside, before rescheduling", "inside, after rescheduling", "between fire and reuse", "after reuse"} {
		e := NewEngine()
		ran := false
		next := func() { e.At(2, func() { ran = true }) }
		var s Scheduled
		s = e.AtCancel(1, func() {
			switch when {
			case "inside, before rescheduling":
				s.Cancel()
				next()
			case "inside, after rescheduling":
				next()
				s.Cancel()
			}
		})
		first := s.ev
		if got := e.Steps(1); got != 1 {
			t.Fatalf("%s: Steps = %d, want 1", when, got)
		}
		switch when {
		case "between fire and reuse":
			s.Cancel()
			next()
		case "after reuse":
			next()
			s.Cancel()
		}
		if got := e.q.peek(); got != first {
			t.Fatalf("%s: the next event did not reuse the fired one's struct", when)
		}
		if err := e.Run(MaxTime); err != nil {
			t.Fatal(err)
		}
		if !ran || e.EventsFired() != 2 {
			t.Errorf("%s: next event ran = %v after %d events, want true after 2", when, ran, e.EventsFired())
		}
	}
}

// An in-flight event is five words: no closure arm, no generation.
func TestEventSize(t *testing.T) {
	if got := unsafe.Sizeof(event{}); got != 40 {
		t.Errorf("unsafe.Sizeof(event{}) = %d, want 40", got)
	}
}

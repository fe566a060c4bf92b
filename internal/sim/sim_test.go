package sim

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{500, "500ns"},
		{2 * Microsecond, "2us"},
		{1500 * Microsecond, "1.5ms"},
		{3 * Second, "3s"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("Time(%d).String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

func TestTimeConversions(t *testing.T) {
	if got := (2500 * Millisecond).Seconds(); got != 2.5 {
		t.Errorf("Seconds() = %v, want 2.5", got)
	}
	if got := (3 * Microsecond).Micros(); got != 3 {
		t.Errorf("Micros() = %v, want 3", got)
	}
}

func TestEventsRunInTimeOrder(t *testing.T) {
	e := NewEngine()
	var order []int
	e.After(30, func() { order = append(order, 3) })
	e.After(10, func() { order = append(order, 1) })
	e.After(20, func() { order = append(order, 2) })
	if err := e.Run(MaxTime); err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("order = %v, want [1 2 3]", order)
	}
	if e.Now() != 30 {
		t.Errorf("Now() = %v, want 30", e.Now())
	}
}

func TestTieBreakByInsertionOrder(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5, func() { order = append(order, i) })
	}
	if err := e.Run(MaxTime); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("tie order = %v, want ascending", order)
		}
	}
}

func TestSchedulingInPastClamps(t *testing.T) {
	e := NewEngine()
	var at Time = -1
	e.After(100, func() {
		e.At(50, func() { at = e.Now() }) // in the past
	})
	if err := e.Run(MaxTime); err != nil {
		t.Fatal(err)
	}
	if at != 100 {
		t.Errorf("past event ran at %v, want clamped to 100", at)
	}
}

func TestNegativeAfterClamps(t *testing.T) {
	e := NewEngine()
	ran := false
	e.After(-5, func() { ran = true })
	if err := e.Run(MaxTime); err != nil {
		t.Fatal(err)
	}
	if !ran || e.Now() != 0 {
		t.Errorf("negative After: ran=%v now=%v", ran, e.Now())
	}
}

func TestRunLimitStopsBeforeEvent(t *testing.T) {
	e := NewEngine()
	ran := 0
	e.After(10, func() { ran++ })
	e.After(100, func() { ran++ })
	if err := e.Run(50); err != nil {
		t.Fatal(err)
	}
	if ran != 1 {
		t.Errorf("ran = %d events under limit 50, want 1", ran)
	}
	if e.Pending() != 1 {
		t.Errorf("Pending() = %d, want 1", e.Pending())
	}
	// Resume past the limit.
	if err := e.Run(MaxTime); err != nil {
		t.Fatal(err)
	}
	if ran != 2 || e.Now() != 100 {
		t.Errorf("after resume ran=%d now=%v", ran, e.Now())
	}
}

func TestSteps(t *testing.T) {
	e := NewEngine()
	ran := 0
	for i := 0; i < 5; i++ {
		e.After(Time(i), func() { ran++ })
	}
	if n := e.Steps(3); n != 3 || ran != 3 {
		t.Errorf("Steps(3) = %d, ran = %d", n, ran)
	}
	if n := e.Steps(100); n != 2 || ran != 5 {
		t.Errorf("Steps(100) = %d, ran = %d", n, ran)
	}
}

func TestProcSleepAdvancesTime(t *testing.T) {
	e := NewEngine()
	var wake Time
	e.Go("sleeper", func(p *Proc) {
		p.Sleep(42 * Microsecond)
		wake = p.Now()
	})
	if err := e.Run(MaxTime); err != nil {
		t.Fatal(err)
	}
	if wake != 42*Microsecond {
		t.Errorf("woke at %v, want 42us", wake)
	}
}

func TestProcsInterleaveDeterministically(t *testing.T) {
	run := func() []string {
		e := NewEngine()
		var trace []string
		for _, name := range []string{"a", "b", "c"} {
			name := name
			e.Go(name, func(p *Proc) {
				for i := 0; i < 3; i++ {
					trace = append(trace, name)
					p.Sleep(10)
				}
			})
		}
		if err := e.Run(MaxTime); err != nil {
			t.Fatal(err)
		}
		return trace
	}
	first := run()
	for i := 0; i < 5; i++ {
		if got := run(); len(got) != len(first) {
			t.Fatalf("nondeterministic length")
		} else {
			for j := range got {
				if got[j] != first[j] {
					t.Fatalf("run %d trace %v != first %v", i, got, first)
				}
			}
		}
	}
	// Spawn order should hold at each time step.
	want := []string{"a", "b", "c", "a", "b", "c", "a", "b", "c"}
	for i := range want {
		if first[i] != want[i] {
			t.Fatalf("trace = %v, want %v", first, want)
		}
	}
}

// parkForever parks p on a gate nobody releases: the one way a process
// stays parked for good.
func parkForever(p *Proc) { NewGate(p.eng).Wait(p) }

func TestDeadlockDetection(t *testing.T) {
	e := NewEngine()
	e.Go("stuck-b", parkForever)
	e.Go("stuck-a", parkForever)
	err := e.Run(MaxTime)
	de, ok := err.(*DeadlockError)
	if !ok {
		t.Fatalf("Run = %v, want DeadlockError", err)
	}
	if len(de.Blocked) != 2 || de.Blocked[0] != "stuck-a" || de.Blocked[1] != "stuck-b" {
		t.Errorf("Blocked = %v, want sorted [stuck-a stuck-b]", de.Blocked)
	}
}

// The error message must name the blocked processes and the event count so
// a failing torture run is diagnosable from the message alone.
func TestDeadlockErrorMessage(t *testing.T) {
	e := NewEngine()
	e.Go("consumer", func(p *Proc) {
		p.Sleep(5)
		parkForever(p)
	})
	err := e.Run(MaxTime)
	de, ok := err.(*DeadlockError)
	if !ok {
		t.Fatalf("Run = %v, want DeadlockError", err)
	}
	msg := de.Error()
	for _, want := range []string{
		"deadlock at 5ns",
		"1 process(es) blocked forever",
		"[consumer]",
	} {
		if !strings.Contains(msg, want) {
			t.Errorf("message %q missing %q", msg, want)
		}
	}
	if de.Fired == 0 {
		t.Error("Fired = 0, want the executed event count")
	}
	if !strings.Contains(msg, fmt.Sprintf("after %d event(s)", de.Fired)) {
		t.Errorf("message %q missing event count %d", msg, de.Fired)
	}
}

func TestNoDeadlockWhenAllFinish(t *testing.T) {
	e := NewEngine()
	g := NewGate(e)
	e.Go("waiter", g.Wait)
	e.Go("waker", func(p *Proc) {
		p.Sleep(10)
		g.Release()
	})
	if err := e.Run(MaxTime); err != nil {
		t.Fatalf("Run = %v, want nil", err)
	}
}

// A zero Sleep yields: events already scheduled for the current time run
// before the process resumes.
// TestYieldLetsSameTimeEventsRun: a pending same-time event still runs
// before a Sleep(0) returns — the wake would queue behind it — and a
// Sleep(0) with nothing due wakes in place, counting its event.
func TestYieldLetsSameTimeEventsRun(t *testing.T) {
	e := NewEngine()
	var order []string
	proc := e.Go("p", func(p *Proc) {
		order = append(order, "p1")
		p.Sleep(0) // ev is due at this instant: park behind it
		order = append(order, "p2")
		p.Sleep(0) // nothing due: wake in place
		order = append(order, "p3")
	})
	e.At(0, func() { order = append(order, "ev") })
	if err := e.Run(MaxTime); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(order, " "); got != "p1 ev p2 p3" {
		t.Errorf("order = %s, want p1 ev p2 p3", got)
	}
	if proc.Dispatches() != 2 || e.EventsFired() != 4 || e.Now() != 0 {
		t.Errorf("dispatches=%d fired=%d now=%v, want 2, 4 (spawn, ev, 2 wakes), 0ns",
			proc.Dispatches(), e.EventsFired(), e.Now())
	}
}

func TestTimerFiresOnce(t *testing.T) {
	e := NewEngine()
	fired := 0
	tm := NewTimer(e, func() { fired++ })
	tm.Reset(10)
	if !tm.Armed() {
		t.Fatal("timer not armed after Reset")
	}
	if err := e.Run(MaxTime); err != nil {
		t.Fatal(err)
	}
	if fired != 1 || tm.Armed() {
		t.Errorf("fired = %d, armed = %v", fired, tm.Armed())
	}
}

func TestTimerResetSupersedesPending(t *testing.T) {
	e := NewEngine()
	var firedAt []Time
	var tm *Timer
	tm = NewTimer(e, func() { firedAt = append(firedAt, e.Now()) })
	tm.Reset(10)
	e.At(5, func() { tm.Reset(100) }) // re-arm before first firing
	if err := e.Run(MaxTime); err != nil {
		t.Fatal(err)
	}
	if len(firedAt) != 1 || firedAt[0] != 105 {
		t.Errorf("firedAt = %v, want [105]", firedAt)
	}
	if tm.at != 105 {
		t.Errorf("deadline %v, want 105", tm.at)
	}
}

func TestRandDeterministicAndInRange(t *testing.T) {
	a, b := NewRand(7), NewRand(7)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed produced different streams")
		}
	}
	r := NewRand(0) // remapped, must not be all zeros
	if r.Uint64() == 0 && r.Uint64() == 0 {
		t.Error("zero seed produced zero stream")
	}
	for i := 0; i < 1000; i++ {
		if v := r.Intn(17); v < 0 || v >= 17 {
			t.Fatalf("Intn(17) = %d out of range", v)
		}
		if f := r.Float64(); f < 0 || f >= 1 {
			t.Fatalf("Float64() = %v out of range", f)
		}
	}
}

// Property: for any batch of event delays, events run in nondecreasing time
// order and the engine ends at the max delay.
func TestPropertyEventOrdering(t *testing.T) {
	prop := func(delays []uint16) bool {
		if len(delays) == 0 {
			return true
		}
		e := NewEngine()
		var times []Time
		var max Time
		for _, d := range delays {
			d := Time(d)
			if d > max {
				max = d
			}
			e.After(d, func() { times = append(times, e.Now()) })
		}
		if err := e.Run(MaxTime); err != nil {
			return false
		}
		for i := 1; i < len(times); i++ {
			if times[i] < times[i-1] {
				return false
			}
		}
		return e.Now() == max
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: N sleeping processes always all finish, ending at max sleep.
func TestPropertyProcsAllFinish(t *testing.T) {
	prop := func(sleeps []uint16) bool {
		e := NewEngine()
		done := 0
		for i, s := range sleeps {
			s := Time(s)
			_ = i
			e.Go("p", func(p *Proc) {
				p.Sleep(s)
				done++
			})
		}
		if err := e.Run(MaxTime); err != nil {
			return false
		}
		return done == len(sleeps)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestCloseReleasesParkedGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	e := NewEngine()
	for i := 0; i < 8; i++ {
		e.Go("parked", parkForever)
	}
	if _, ok := e.Run(MaxTime).(*DeadlockError); !ok {
		t.Fatal("Run with every process parked for good must report a deadlock")
	}
	e.Close()
	e.Close() // idempotent
	if !goroutinesDrainTo(before) {
		t.Errorf("goroutines leaked after Close: %d > %d", runtime.NumGoroutine(), before)
	}
}

// goroutinesDrainTo waits, with a bounded number of retries rather than a
// wall-clock deadline, for the live goroutine count to drop to at most n.
func goroutinesDrainTo(n int) bool {
	for i := 0; i < 2000; i++ {
		if runtime.NumGoroutine() <= n {
			return true
		}
		runtime.Gosched()
		// Yielding alone may not give exiting goroutines CPU time; a
		// real sleep is the only way to observe their unwinding.
		time.Sleep(time.Millisecond) //fclint:allow simwallclock bounded retry must really sleep to let released goroutines exit
	}
	return runtime.NumGoroutine() <= n
}

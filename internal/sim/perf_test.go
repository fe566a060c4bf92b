package sim

import "testing"

// Performance of the simulator itself (host ns per simulated event):
// the experiment suite fires tens of millions of events, so the engine's
// own overhead bounds how large a cluster we can study. All benchmarks
// report allocations — the freelist and handler events exist precisely to
// drive steady-state allocs/op to zero. The repo benchmark's sim.* ladder
// rungs (sim.dispatch_ns, sim.dispatch_deep_ns, sim.proc_switch_ns,
// sim.timer_reset_ns, sim.cancel_ns) time the same operations.

func BenchmarkEventDispatch(b *testing.B) {
	e := NewEngine()
	n := 0
	var fn func()
	fn = func() {
		n++
		if n < b.N {
			e.After(1, fn)
		}
	}
	e.After(1, fn)
	b.ReportAllocs()
	b.ResetTimer()
	if err := e.Run(MaxTime); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkHeapChurn(b *testing.B) {
	// Many co-pending timers stress the event queue.
	e := NewEngine()
	const pending = 1024
	fired := 0
	var arm func(at Time)
	arm = func(at Time) {
		fired++
		if fired < b.N {
			e.At(at+pending, func() { arm(at + pending) })
		}
	}
	for i := 0; i < pending && i < b.N; i++ {
		at := Time(i)
		e.At(at, func() { arm(at) })
	}
	b.ReportAllocs()
	b.ResetTimer()
	if err := e.Run(MaxTime); err != nil {
		b.Fatal(err)
	}
}

// churner reschedules itself via AtCall: the closure-free analogue of
// BenchmarkHeapChurn, measuring the handler fast path.
type churner struct {
	e      *Engine
	n      int
	limit  int
	stride Time
}

func (c *churner) OnEvent(uint64) {
	c.n++
	if c.n < c.limit {
		c.e.AfterCall(c.stride, c, 0)
	}
}

func BenchmarkHandlerChurn(b *testing.B) {
	// The same 1024-co-pending workload as BenchmarkHeapChurn, scheduled
	// through AtCall with long-lived handlers: zero allocs/op is the target.
	e := NewEngine()
	const pending = 1024
	total := &churner{e: e, limit: b.N, stride: pending}
	for i := 0; i < pending && i < b.N; i++ {
		e.AtCall(Time(i), total, 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	if err := e.Run(MaxTime); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkTimerReset(b *testing.B) {
	// Timer re-arm churn: the QP retransmit-timer pattern (Reset on every
	// ack) is one of the hottest schedule sites in internal/ib.
	e := NewEngine()
	n := 0
	var tm *Timer
	tm = NewTimer(e, func() {
		n++
		if n < b.N {
			tm.Reset(1)
		}
	})
	tm.Reset(1)
	b.ReportAllocs()
	b.ResetTimer()
	if err := e.Run(MaxTime); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkCancelChurn(b *testing.B) {
	// AtCancel + Cancel churn: the metrics sampler pattern. Each iteration
	// schedules a cancellable event, cancels it, and fires a live one so
	// the queue also drains the tombstones.
	e := NewEngine()
	n := 0
	var fn func()
	fn = func() {
		n++
		if n < b.N {
			s := e.AtCancel(e.Now()+2, func() {})
			s.Cancel()
			e.After(1, fn)
		}
	}
	e.After(1, fn)
	b.ReportAllocs()
	b.ResetTimer()
	if err := e.Run(MaxTime); err != nil {
		b.Fatal(err)
	}
}

// TestSteadyStateAllocGate is the event core's allocation-regression
// gate: after warm-up, the handler fast path must not allocate at all,
// BenchmarkHeapChurn's closure loop may allocate only the user's closure
// itself (one object per event), and a process parking and resuming
// through a Cond must not allocate either.
func TestSteadyStateAllocGate(t *testing.T) {
	const pending, events = 1024, 8192
	e := NewEngine()

	// Handler path (BenchmarkHandlerChurn's loop): zero allocs per event.
	c := &churner{e: e, stride: pending}
	handler := func() {
		c.n, c.limit = 0, events
		for i := 0; i < pending; i++ {
			e.AtCall(e.Now()+Time(i), c, 0)
		}
		if err := e.Run(MaxTime); err != nil {
			t.Fatal(err)
		}
	}
	// Warm the freelist and every slot of the ladder's bucket ring: slots
	// allocate backing storage on first touch, so measuring before the ring
	// has wrapped once would charge that one-time growth to the steady state.
	for e.Now() < span {
		handler()
	}
	if got := testing.AllocsPerRun(3, handler) / events; got > 0.01 {
		t.Errorf("handler churn: %.3f allocs/event, want 0", got)
	}

	// Closure path (BenchmarkHeapChurn's loop): at most the closure itself.
	fired, limit := 0, 0
	var arm func(at Time)
	arm = func(at Time) {
		fired++
		if fired < limit {
			e.At(at+pending, func() { arm(at + pending) })
		}
	}
	closure := func() {
		fired, limit = 0, events
		for i := 0; i < pending; i++ {
			at := e.Now() + Time(i)
			e.At(at, func() { arm(at) })
		}
		if err := e.Run(MaxTime); err != nil {
			t.Fatal(err)
		}
	}
	closure()
	// Each run allocates one closure per fired event plus the `pending`
	// initial arms, so the honest per-event bound is (events+pending)/events.
	if got := testing.AllocsPerRun(3, closure) / events; got > (events+pending)/float64(events)+0.05 {
		t.Errorf("closure churn: %.3f allocs/event, want <= 1 closure per scheduled event", got)
	}

	// Process path (BenchmarkProcContextSwitch's loop): a park, a wakeup
	// event and a resume per switch, none of which may allocate. The two
	// processes never finish; Close unwinds them.
	pe := NewEngine()
	defer pe.Close()
	c1, c2 := NewCond(pe), NewCond(pe)
	pe.GoDaemon("b", func(p *Proc) {
		for {
			c2.Wait(p)
			c1.Signal()
		}
	})
	pe.GoDaemon("a", func(p *Proc) {
		for {
			c2.Signal()
			c1.Wait(p)
		}
	})
	const rounds = 1024
	pingpong := func() {
		if ran := pe.Steps(2 * rounds); ran != 2*rounds {
			t.Fatalf("cond ping-pong ran %d events, want %d", ran, 2*rounds)
		}
	}
	pingpong()
	if got := testing.AllocsPerRun(3, pingpong) / rounds; got > 0.01 {
		t.Errorf("cond ping-pong: %.3f allocs/round, want 0", got)
	}
}

func BenchmarkProcContextSwitch(b *testing.B) {
	// Two processes ping-ponging through a Cond measures the coroutine
	// dispatch cost: one next() into the process and one yield() back per
	// switch, plus the wakeup event.
	e := NewEngine()
	c1, c2 := NewCond(e), NewCond(e)
	rounds := b.N
	// b spawns first so it is already waiting when a's first signal fires.
	e.Go("b", func(p *Proc) {
		for i := 0; i < rounds; i++ {
			c2.Wait(p)
			c1.Signal()
		}
	})
	e.Go("a", func(p *Proc) {
		for i := 0; i < rounds; i++ {
			c2.Signal()
			c1.Wait(p)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	if err := e.Run(MaxTime); err != nil {
		b.Fatal(err)
	}
}

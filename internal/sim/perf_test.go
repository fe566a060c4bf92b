package sim

import (
	"fmt"
	"testing"
)

// Performance of the simulator itself (host ns per simulated event):
// the experiment suite fires tens of millions of events, so the engine's
// own overhead bounds how large a cluster we can study. All benchmarks
// report allocations — the freelist and handler events exist precisely to
// drive steady-state allocs/op to zero. The repo benchmark's sim.* ladder
// rungs (sim.dispatch_ns, sim.dispatch_deep_ns, sim.proc_switch_ns,
// sim.timer_reset_ns, sim.cancel_ns) time the same operations; the
// sim.proc_switch_ns rung is a lone sleeper, which BenchmarkProcSleepInline
// times, not BenchmarkProcContextSwitch.

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
	// BenchmarkHeapChurn's workload scheduled through AtCall with
	// long-lived handlers (zero allocs/op is the target), at the deepest
	// pending sets the repo benchmark's workloads reach — pingpong 3,
	// nas_mix 80, storm_1024 3 072 — and at 1 024, the depth this
	// benchmark always ran at.
	for _, pending := range []int{3, 80, 1024, 3072} {
		b.Run(fmt.Sprintf("pending=%d", pending), func(b *testing.B) {
			e := NewEngine()
			total := &churner{e: e, limit: b.N, stride: Time(pending)}
			for i := 0; i < pending && i < b.N; i++ {
				e.AtCall(Time(i), total, 0)
			}
			b.ReportAllocs()
			b.ResetTimer()
			if err := e.Run(MaxTime); err != nil {
				b.Fatal(err)
			}
		})
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
// itself (one object per event), and a process sleeping must not allocate
// either — neither when it parks and resumes nor when it wakes in place.
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
	// Warm the freelist and the heap's backing: both grow to the pending
	// depth once, which the steady state must not be charged for.
	handler()
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

	// Process path: a wakeup event, a resume and a park per Sleep, none
	// of which may allocate. Steps never wakes a sleeper in place, so this
	// lone sleeper still switches on every wake: it gates the parking
	// path that BenchmarkProcContextSwitch times. The process never
	// finishes; Close unwinds it.
	pe := NewEngine()
	defer pe.Close()
	runTo := MaxTime // the inline check's Run limit
	pe.Go("sleeper", func(p *Proc) {
		// A wake past Run's limit is a bug: ending there fails the inline
		// check's event count instead of sleeping in place forever.
		for p.Now() <= runTo {
			p.Sleep(1)
		}
	})
	const switches = 1024
	sleep := func() {
		if ran := pe.Steps(switches); ran != switches {
			t.Fatalf("sleep loop ran %d events, want %d", ran, switches)
		}
	}
	sleep()
	if got := testing.AllocsPerRun(3, sleep) / switches; got > 0.01 {
		t.Errorf("sleep loop: %.3f allocs/switch, want 0", got)
	}

	// Inline path (BenchmarkProcSleepInline's loop, the repo benchmark's
	// sim.proc_switch_ns rung): the same lone sleeper under Run wakes in
	// place, except for the one wake per call that Run's limit queues.
	inline := func() {
		fired := pe.EventsFired()
		runTo = pe.Now() + switches
		if err := pe.Run(runTo); err != nil {
			t.Fatal(err)
		}
		if ran := pe.EventsFired() - fired; ran != switches {
			t.Fatalf("inline sleep loop ran %d events, want %d", ran, switches)
		}
	}
	inline()
	if got := testing.AllocsPerRun(3, inline) / switches; got > 0.01 {
		t.Errorf("inline sleep loop: %.3f allocs/wake, want 0", got)
	}
}

func BenchmarkProcContextSwitch(b *testing.B) {
	// Two processes sleeping 1 ns at a time in lockstep measure the
	// coroutine switch: each wake finds the other's wake due first, so it
	// cannot be taken in place and costs the wakeup event, one next() into
	// the process and one yield() back. b.N sleeps in all.
	e := NewEngine()
	for i, n := range []int{b.N / 2, b.N - b.N/2} {
		e.Go(fmt.Sprint("sleeper", i), func(p *Proc) {
			for range n {
				p.Sleep(1)
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	if err := e.Run(MaxTime); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkProcSleepInline(b *testing.B) {
	// One process sleeping 1 ns at a time, the loop the repo benchmark's
	// sim.proc_switch_ns rung runs: nothing else is ever due, so every
	// wake is taken in place, with no queue and no switch.
	e := NewEngine()
	n := b.N
	e.Go("sleeper", func(p *Proc) {
		for range n {
			p.Sleep(1)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	if err := e.Run(MaxTime); err != nil {
		b.Fatal(err)
	}
}

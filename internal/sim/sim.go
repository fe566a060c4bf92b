// Package sim implements a deterministic discrete-event simulation core.
//
// The engine maintains a virtual clock and an event queue, a binary heap
// ordered by (time, seq) (see queue.go). Simulated processes (see Proc)
// run as runtime coroutines that the engine resumes one at a time: at
// most one process executes, and it runs to its next blocking point
// before the engine continues.
// Event ties are broken by insertion order, so a simulation is fully
// deterministic: the same inputs always produce the same virtual-time
// trace.
//
// This core underlies the InfiniBand fabric model (internal/ib) and the MPI
// ranks (internal/mpi) of this repository.
package sim

import (
	"fmt"
	"math"
	"sort"

	"ibflow/internal/store"
)

// Time is virtual time in nanoseconds.
type Time int64

// Convenient virtual-time units.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// MaxTime is the largest representable virtual time.
const MaxTime Time = math.MaxInt64

// String formats a Time using the most natural unit.
func (t Time) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.6gs", float64(t)/float64(Second))
	case t >= Millisecond:
		return fmt.Sprintf("%.6gms", float64(t)/float64(Millisecond))
	case t >= Microsecond:
		return fmt.Sprintf("%.6gus", float64(t)/float64(Microsecond))
	default:
		return fmt.Sprintf("%dns", int64(t))
	}
}

// Seconds converts t to floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Micros converts t to floating-point microseconds.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

// Handler receives events scheduled with AtCall/AfterCall. Long-lived
// simulation objects (a queue pair, a timer, a process) implement it so
// the hot schedule sites bind (receiver, argument) into the event itself
// instead of allocating a fresh closure per event.
type Handler interface {
	// OnEvent runs at the event's virtual time with the argument bound
	// at schedule time.
	OnEvent(arg uint64)
}

// funcHandler adapts a plain callback to Handler, so At, After and
// AtCancel schedule the one event shape there is. A func value is
// pointer-shaped: boxing it in the interface allocates nothing.
type funcHandler func()

func (f funcHandler) OnEvent(uint64) { f() }

// event is a scheduled handler call; a cancelled event has a nil h.
// Events are the engine's, carved and recycled by its pool.
type event struct {
	at   Time
	seq  uint64 // insertion order; breaks ties deterministically and names the event to its Scheduled handle
	h    Handler
	harg uint64
}

// Engine is a discrete-event simulation engine. The zero value is not
// usable; create one with NewEngine.
//
// Engine methods must only be called from the goroutine running Run (that
// is, from event callbacks or from currently-executing processes). The
// engine itself enforces mutual exclusion between processes, so simulation
// state shared between processes needs no locking.
type Engine struct {
	now    Time
	q      eventQueue
	seq    uint64
	events store.Pool[event]
	procs  []*Proc // all spawned processes, for deadlock reporting
	nlive  int     // processes that have not finished
	cur    *Proc   // currently executing process, if any
	fired  uint64  // total events executed, for stats/limits
	closed bool
	// inlined is set when a process woke in place under the event now
	// firing; schedule and dispatch from the engine's stack then break
	// the Release tail contract (see Gate.Release).
	inlined bool
	// limit is Run's time limit while Run fires and -1 otherwise, so one
	// comparison asks a Sleep both questions: is Run firing, and is the
	// wake within its limit (see Proc.Sleep).
	limit Time
}

// NewEngine creates an empty engine at virtual time zero.
func NewEngine() *Engine { return &Engine{limit: -1} }

// Close unwinds every unfinished process (deadlocked ranks, ranks never
// dispatched) so a discarded engine leaks nothing: a parked process
// runs its deferred functions and exits, one that never started exits
// without running. It returns once they are all gone. The engine must not
// be used afterwards. Close panics when called from inside a process: a
// process cannot unwind the stack it is standing on.
func (e *Engine) Close() {
	if e.closed {
		return
	}
	if e.cur != nil {
		panic(fmt.Sprintf("sim: Close called from inside running process %q", e.cur.name))
	}
	e.closed = true
	for _, p := range e.procs {
		if !p.finished {
			p.stop()
		}
	}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// EventsFired reports how many events the engine has executed. A wake a
// Sleep takes in place counts: it is the event the sleep would have
// queued, fired without the queue.
func (e *Engine) EventsFired() uint64 { return e.fired }

// deadline is the virtual time d from now, saturated to [now, MaxTime]:
// a non-positive d is now, and a d past the end of time is MaxTime.
func (e *Engine) deadline(d Time) Time {
	if d <= 0 {
		return e.now
	}
	if d > MaxTime-e.now {
		return MaxTime
	}
	return e.now + d
}

// tailContract is the panic for work done on the engine's stack after a
// Gate.Release whose process woke in place.
const tailContract = "sim: Release tail contract broken: a handler scheduled or resumed work after a Gate.Release whose process woke in place; Release must be the last act of its handler"

// schedule queues h.OnEvent(arg) at t (clamped to the present) under the
// next insertion sequence.
func (e *Engine) schedule(t Time, h Handler, arg uint64) *event {
	if e.inlined && e.cur == nil {
		panic(tailContract)
	}
	if t < e.now {
		t = e.now
	}
	e.seq++
	ev := e.events.Get()
	ev.at, ev.seq, ev.h, ev.harg = t, e.seq, h, arg
	e.q.push(ev)
	return ev
}

// run is the one fire path: it runs events in (time, sequence) order
// until n have run, the queue is empty or the next one lies beyond limit,
// and reports how many ran. A cancelled event is discarded — even past
// the limit, so it never counts as pending work — without touching the
// clock or either count. An event goes back to the pool before its
// callback runs: the callback may schedule new events, which may reuse
// this very struct.
func (e *Engine) run(limit Time, n int) int {
	ran := 0
	for ran < n && len(e.q) > 0 {
		ev := e.q.peek()
		at, h, arg := ev.at, ev.h, ev.harg
		if h != nil && at > limit {
			break
		}
		e.q.pop()
		ev.h = nil
		e.events.Put(ev)
		if h == nil {
			continue
		}
		e.now = at
		e.fired++
		h.OnEvent(arg)
		e.inlined = false
		ran++
	}
	return ran
}

// At schedules fn to run at absolute virtual time t. Scheduling in the
// past is clamped to the present.
func (e *Engine) At(t Time, fn func()) { e.schedule(t, funcHandler(fn), 0) }

// After schedules fn to run d nanoseconds from now.
func (e *Engine) After(d Time, fn func()) { e.At(e.deadline(d), fn) }

// AtCall schedules h.OnEvent(arg) at absolute virtual time t. The handler
// is a long-lived object and the argument rides in the event itself, so
// steady-state scheduling reuses pooled event structs and allocates
// nothing.
func (e *Engine) AtCall(t Time, h Handler, arg uint64) {
	if h == nil {
		panic("sim: AtCall with nil handler")
	}
	e.schedule(t, h, arg)
}

// AfterCall schedules h.OnEvent(arg) d nanoseconds from now.
func (e *Engine) AfterCall(d Time, h Handler, arg uint64) { e.AtCall(e.deadline(d), h, arg) }

// Scheduled is a handle to an event scheduled with AtCancel. The zero
// value is a no-op handle.
type Scheduled struct {
	ev  *event
	seq uint64
}

// Cancel marks the event dead. A cancelled event is discarded when it
// reaches the head of the queue without advancing the virtual clock or
// the fired-event count — unlike Timer, whose stale firings deliberately
// keep the classic advance-the-clock behaviour. This makes AtCancel safe
// for auxiliary periodic work (metrics sampling) that must not stretch a
// run's makespan when the real workload finishes first. Cancelling an
// event that already fired is a no-op: its struct is back in the pool
// with no handler, or carries another event's sequence number — an
// engine never issues one twice.
func (s Scheduled) Cancel() {
	if s.ev != nil && s.ev.seq == s.seq {
		s.ev.h = nil
	}
}

// AtCancel schedules fn at absolute virtual time t and returns a handle
// that can cancel it. Scheduling in the past is clamped to the present.
func (e *Engine) AtCancel(t Time, fn func()) Scheduled {
	if fn == nil {
		panic("sim: AtCancel with nil callback")
	}
	ev := e.schedule(t, funcHandler(fn), 0)
	return Scheduled{ev: ev, seq: ev.seq}
}

// DeadlockError is returned by Run when the event queue drains while
// processes are still parked: nothing can ever wake them again.
type DeadlockError struct {
	Time    Time
	Blocked []string // names of parked processes, sorted
	Fired   uint64   // events executed before the queue drained
}

func (e *DeadlockError) Error() string {
	return fmt.Sprintf("sim: deadlock at %v after %d event(s): %d process(es) blocked forever: %v",
		e.Time, e.Fired, len(e.Blocked), e.Blocked)
}

// Run executes events until the queue is empty or until virtual time would
// exceed limit (use MaxTime for no limit). It returns a *DeadlockError if
// the queue drains while spawned processes are still parked. Run may be
// called repeatedly; it resumes from the current virtual time. While Run
// fires, a Sleep whose wake is provably the next event wakes in place
// (see Proc.Sleep).
func (e *Engine) Run(limit Time) error {
	e.limit = limit
	defer func() { e.limit = -1 }()
	e.run(limit, math.MaxInt)
	if len(e.q) > 0 {
		return nil
	}
	if e.nlive > 0 {
		var blocked []string
		for _, p := range e.procs {
			if !p.finished {
				blocked = append(blocked, p.name)
			}
		}
		sort.Strings(blocked)
		return &DeadlockError{Time: e.now, Blocked: blocked, Fired: e.fired}
	}
	return nil
}

// Steps runs at most n events (useful for tests that single-step); a
// cancelled event is not a step. It reports how many events actually ran.
// Steps never wakes a sleeper in place, so every wake is a step of its
// own and a switch into the process.
func (e *Engine) Steps(n int) int { return e.run(MaxTime, n) }

// Pending reports how many events are queued.
func (e *Engine) Pending() int { return len(e.q) }

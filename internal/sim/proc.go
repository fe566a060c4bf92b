package sim

import (
	"fmt"
	"iter"
	"math"
	"strconv"
)

// Proc is a simulated process: a runtime coroutine (iter.Pull) that the
// engine resumes and that yields back when it blocks. A process runs until
// it blocks (Sleep or Gate.Wait) or returns; only then does the engine
// continue with other events. The switch in either direction is a direct
// hand-over between two goroutines that never enters the Go scheduler, so
// processes never race with one another or with event callbacks.
//
// All Proc methods must be called from the process's own coroutine.
type Proc struct {
	eng        *Engine
	label      string                  // the whole name, or with idx >= 0 its prefix (see name)
	next       func() (struct{}, bool) // engine -> proc: run until the next park (or the end)
	stop       func()                  // engine -> proc: unwind (Engine.Close)
	yield      func(struct{}) bool     // proc -> engine: I parked; false means unwind
	dispatches uint64
	idx        int32 // spawn index (Spawn); -1 for a process Go named
	finished   bool
	direct     bool // last dispatched from the engine's stack: no process lies between it and the run loop
}

// unwind is the value park panics with when the engine is closed under a
// parked process: it runs the process's deferred functions on the way out
// and is recovered by the coroutine body, never seen by callers.
type unwind struct{}

// Go spawns a new process running fn. The process starts at the current
// virtual time (as a scheduled event). The name is used in deadlock reports.
func (e *Engine) Go(name string, fn func(p *Proc)) *Proc {
	p := new(Proc)
	e.start(p, name, -1, fn)
	return p
}

// Spawn starts process idx of a numbered group in *p, storage the caller
// owns — one record per rank embeds its process there, as a connection
// embeds its QP (ib.HCA.InitQP) — so a spawn allocates nothing beyond
// the coroutine, and one fn serves the whole group: it finds its member
// by p.Index(). The process starts at the current virtual time, and its
// name is prefix followed by idx, formatted only where it is printed:
// the deadlock report and the panics. *p must not be copied or moved afterwards.
func (e *Engine) Spawn(p *Proc, prefix string, idx int, fn func(p *Proc)) {
	if idx < 0 || idx > math.MaxInt32 {
		panic("sim: Spawn index outside 0..MaxInt32")
	}
	e.start(p, prefix, idx, fn)
}

func (e *Engine) start(p *Proc, name string, idx int, fn func(p *Proc)) {
	*p = Proc{eng: e, label: name, idx: int32(idx)}
	e.procs = append(e.procs, p)
	e.nlive++
	p.next, p.stop = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		defer func() {
			p.finished = true
			e.nlive--
			// A real panic (or a goroutine exit such as t.FailNow, which
			// recover does not see) propagates through iter.Pull to
			// whoever called next or stop.
			if r := recover(); r != nil && r != (unwind{}) {
				panic(r)
			}
		}()
		fn(p)
	})
	e.AtCall(e.now, p, 0)
}

// Index reports the process's index in its Spawn group, -1 for one
// started by Go.
func (p *Proc) Index() int { return int(p.idx) }

// name is the process's name: Go's, or Spawn's prefix and index.
func (p *Proc) name() string {
	if p.idx < 0 {
		return p.label
	}
	return p.label + strconv.Itoa(int(p.idx))
}

// OnEvent implements Handler: a scheduled wakeup hands the CPU to this
// process. The argument is unused — a Proc event always means "run".
func (p *Proc) OnEvent(uint64) { p.eng.dispatch(p) }

// dispatch hands the CPU to p and returns when it parks or finishes. It may
// be called from the engine's goroutine or from another process's coroutine
// (a Gate.Release issued while that process steps the machine inline), one
// call at a time. A panic in p surfaces here with its original value.
func (e *Engine) dispatch(p *Proc) {
	if p.finished {
		panic(fmt.Sprintf("sim: dispatch of finished process %q", p.name()))
	}
	if e.inlined && e.cur == nil {
		panic(tailContract)
	}
	p.dispatches++
	prev := e.cur
	e.cur = p
	p.direct = prev == nil
	defer func() { e.cur = prev }()
	p.next()
}

// park yields control back to the engine until the next dispatch. If the
// engine is closed while parked, the process unwinds: its deferred
// functions run and the coroutine exits.
func (p *Proc) park() {
	if !p.yield(struct{}{}) {
		panic(unwind{})
	}
}

// Dispatches reports how many times the engine has handed the CPU to this
// process — the coroutine context-switch count. A wake a Sleep takes in
// place is not a switch and does not count. Handler-based progress
// engines exist to keep this flat: steady-state traffic must not grow it.
func (p *Proc) Dispatches() uint64 { return p.dispatches }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.eng.now }

// Sleep advances the process by d of virtual time (saturated to [now,
// MaxTime]). Other events and processes run in the meantime: the wake is
// an event queued behind every event already due at or before it, so a
// non-positive sleep yields only when a same-time event is pending.
//
// When nothing can run before the wake, the sleep wakes in place: it
// takes the wake's sequence number, sets the clock and counts the event
// exactly as firing the queued wake would, but pushes nothing and
// switches neither way. All four must hold: Run (never Steps) is firing;
// the wake is within Run's limit; the queue is empty or its head is
// strictly later than the wake; and p is the only process between the
// run loop and this frame (dispatched by its own wake, or by a Release
// that ends its handler — see Gate.Release). A process resumed by a
// Release on another process's stack always parks.
func (p *Proc) Sleep(d Time) {
	e := p.eng
	t := e.deadline(d)
	if p.direct && t <= e.limit && (len(e.q) == 0 || e.q.peek().at > t) {
		e.seq++
		e.now = t
		e.fired++
		e.inlined = true
		return
	}
	e.AtCall(t, p, 0)
	p.park()
}

// Gate parks at most one process until an event handler releases it. It is
// the bridge between a handler-based progress engine and the process that
// asked it for work: the process parks once per request, and the handler —
// having finished the request entirely in event context — resumes it
// synchronously, with no wakeup event and no change to the event order.
//
// Unlike a Sleep's wakeup (a queued event that resumes the process,
// unless the sleep wakes in place), Release hands the CPU over inline,
// exactly as if the waiting process had been the current event's handler
// itself. Like Proc.OnEvent it resumes a process and returns when that
// process yields, so it is legal in event context: the hot-path contract
// (see internal/analysis) forbids handlers to park, and only the process
// side of the pair — Wait — parks.
//
// The zero value is NOT usable; create with NewGate.
type Gate struct {
	eng *Engine
	p   *Proc
}

// NewGate creates a gate on engine e.
func NewGate(e *Engine) *Gate { return &Gate{eng: e} }

// Wait parks p until Release. At most one process may wait at a time: the
// gate models a request/completion pair, not a queue.
func (g *Gate) Wait(p *Proc) {
	if g.p != nil {
		panic(fmt.Sprintf("sim: Gate.Wait(%q) while %q is already waiting", p.name(), g.p.name()))
	}
	g.p = p
	p.park()
}

// Release synchronously resumes the waiting process and returns when it
// parks again or finishes. Must be called inside an event — which may
// itself be running on another process's stack, when that process steps a
// progress machine inline; panics if no process is waiting.
//
// On the engine's stack, Release must be the last act of its handler (the
// tail contract): the released process is then the only one between the
// run loop and its frame, so its Sleeps may wake in place and run it past
// the handler's instant. Once it has, any schedule or resume before the
// handler returns panics, naming the contract. On a process's stack there
// is no such rule: the released process parks at its next Sleep.
func (g *Gate) Release() {
	p := g.p
	if p == nil {
		panic("sim: Gate.Release with no waiter")
	}
	g.p = nil
	g.eng.dispatch(p)
}

// Waiting reports whether a process is parked on g.
func (g *Gate) Waiting() bool { return g.p != nil }

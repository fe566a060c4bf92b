// Package hotalloc exercises the hotalloc analyzer: per-event
// allocations at schedule sites on the event hot path.
package hotalloc

import (
	"hotalloc/lib"
	"hotalloc/sim"
)

// pumper's handler makes everything it calls hot — including lib.Pump in
// the dependency package (see lib's own fixtures).
type pumper struct{ e *sim.Engine }

func (h *pumper) OnEvent(arg uint64) {
	lib.Pump(h.e)
	h.schedule()
}

// schedule is hot (reachable from pumper.OnEvent): its closure sites are
// per-event allocations.
func (h *pumper) schedule() {
	h.e.At(1, func() { // want `closure scheduled with Engine\.At in \(\*hotalloc\.pumper\)\.schedule, which runs in event context \(reachable from \(\*hotalloc\.pumper\)\.OnEvent\)`
		_ = 1
	})
	h.e.AfterCall(1, h, 2) // negative: the allocation-free twin
}

// nested demonstrates that a scheduled closure is itself hot: the inner
// site's owner is the outer closure, an event-context root, so the inner
// site is flagged even though nested itself is cold (and the outer site,
// whose owner is nested, is not — it costs one closure per nested call,
// not per event).
func nested(e *sim.Engine) {
	e.At(1, func() {
		e.At(2, func() { // want `closure scheduled with Engine\.At in a closure, which runs in event context \(reachable from a closure\)`
			_ = 1
		})
	})
}

// cold schedules a closure but is unreachable from event context: the
// site costs one closure per call, not per event, and passes.
func cold(e *sim.Engine) {
	e.After(3, func() {
		_ = 1
	})
}

// handler is a trivial bound handler for the fresh-allocation cases.
type handler struct{ n int }

func (h *handler) OnEvent(arg uint64) { h.n++ }

// fresh allocates its handler at the schedule site: flagged anywhere in
// audited code, hot or not — the bound-struct pattern exists to hoist
// exactly this allocation into the long-lived owner.
func fresh(e *sim.Engine) {
	e.AtCall(1, &handler{}, 0)      // want `handler struct allocated at the Engine\.AtCall call site in hotalloc\.fresh`
	e.AfterCall(2, new(handler), 0) // want `handler struct allocated at the Engine\.AfterCall call site in hotalloc\.fresh`
	h := &handler{}
	e.AtCall(3, h, 0) // negative: long-lived handler, no site allocation
}

// sanctioned closure takers: AtCancel (cancellable auxiliary work) and
// NewTimer (one-time long-lived construction) are not hotalloc sites,
// even in hot code.
type sampler struct{ e *sim.Engine }

func (s *sampler) OnEvent(arg uint64) {
	s.e.AtCancel(1, func() { _ = 1 })
	_ = sim.NewTimer(s.e, func() { _ = 1 })
}

// slicer exercises the byte-slice rule: a make([]byte, ...) reachable
// from event context allocates a payload buffer per event.
type slicer struct{ buf []byte }

func (s *slicer) OnEvent(arg uint64) {
	s.fill()
}

func (s *slicer) fill() {
	s.buf = make([]byte, 64) // want `make\(\[\]byte, \.\.\.\) in \(\*hotalloc\.slicer\)\.fill, which runs in event context \(reachable from \(\*hotalloc\.slicer\)\.OnEvent\)`
	_ = make([]int, 4)       // negative: not a wire payload
}

// coldFill makes a byte slice but is unreachable from event context: it
// costs one buffer per call, not per event, and passes.
func coldFill() []byte { return make([]byte, 8) }

// state stands for per-message protocol state, and builder for the
// handler that used to allocate one per event.
type state struct{ id int }

type builder struct {
	cur, free *state
	e         *sim.Engine
}

func (b *builder) OnEvent(arg uint64) {
	b.cur = &state{id: 1} // want `&state\{\.\.\.\} in \(\*hotalloc\.builder\)\.OnEvent, which runs in event context \(reachable from \(\*hotalloc\.builder\)\.OnEvent\)`
	b.cur = new(state)    // want `new\(state\) in \(\*hotalloc\.builder\)\.OnEvent, which runs in event context`
	b.refill()
	_ = byValue(state{id: 2})    // negative: a literal passed by value stays on the stack
	_ = &[4]int{}                // negative: not a named struct type
	_ = new(int)                 // negative: likewise
	b.e.AtCall(1, &handler{}, 0) // want `handler struct allocated at the Engine\.AtCall call site in \(\*hotalloc\.builder\)\.OnEvent`
}

// refill is hot too (OnEvent calls it), and its allocation is the
// sanctioned kind: the finding is raised and the fclint:allow takes it
// back (TestHotAllocAllowsRefill).
func (b *builder) refill() {
	if b.free == nil {
		//fclint:allow hotalloc freelist refill: made once, recycled from then on
		b.free = &state{} // want `&state\{\.\.\.\} in \(\*hotalloc\.builder\)\.refill, which runs in event context \(reachable from \(\*hotalloc\.builder\)\.OnEvent\)`
	}
}

func byValue(s state) int { return s.id }

// coldState allocates the same struct but is unreachable from event
// context: one object per call, not per event, and passes.
func coldState() *state { return &state{id: 3} }

// Package simhotpath exercises the simhotpath analyzer: functions that
// run in event context (handlers, event-scheduled callbacks) must never
// park.
package simhotpath

import (
	"simhotpath/dep"
	"simhotpath/sim"
)

// parker parks directly in its handler body.
type parker struct{ ch chan int }

func (h *parker) OnEvent(arg uint64) { // want `handler \(\*simhotpath\.parker\)\.OnEvent may park the event loop: sends on a channel`
	h.ch <- int(arg)
}

// crosser reaches a park two call hops away in another package: the park
// fact flows dep.inner -> dep.Helper -> here, across the package
// boundary.
type crosser struct{}

func (h *crosser) OnEvent(arg uint64) { // want `handler \(\*simhotpath\.crosser\)\.OnEvent may park the event loop: calls dep\.Helper, which calls dep\.inner, which receives from a channel`
	dep.Helper()
}

// procWaiter waits on the simulated process API; the park derives from
// the sim package's own coroutine yield, not a hardcoded method list.
type procWaiter struct {
	c *sim.Cond
	p *sim.Proc
}

func (h *procWaiter) OnEvent(arg uint64) { // want `handler \(\*simhotpath\.procWaiter\)\.OnEvent may park the event loop: calls \(\*sim\.Cond\)\.Wait, which calls \(\*sim\.Proc\)\.park, which yields its coroutine to the engine`
	h.c.Wait(h.p)
}

// clean is the negative case: calling pure code and rescheduling through
// the allocation-free handler path are both fine.
type clean struct{ e *sim.Engine }

func (h *clean) OnEvent(arg uint64) {
	_ = dep.Pure()
	h.e.AfterCall(1, h, arg)
}

// notAHandler has the wrong signature: not a root, parks legally.
type notAHandler struct{ ch chan int }

func (h *notAHandler) OnEvent(arg uint32) {
	h.ch <- int(arg)
}

// schedule hands closures to the engine: each scheduled closure is an
// event-context root of its own.
func schedule(e *sim.Engine, ch chan int) {
	e.At(1, func() { // want `event-scheduled callback a closure may park the event loop: receives from a channel`
		<-ch
	})
	e.After(2, func() { // negative: park-free closure
		_ = dep.Pure()
	})
}

// spawned goroutine bodies are not event context: their parks are the
// spawned goroutine's business (and simgoroutine's, elsewhere).
func spawner(ch chan int) { // no simhotpath finding here
	go func() {
		<-ch
	}()
}

// releaser hands a finished request back to the asking process: Release
// runs the process inline and returns when it yields — a dispatch, not a
// park.
type releaser struct{ g *sim.Gate }

func (h *releaser) OnEvent(arg uint64) { // negative: Release resumes, it does not park
	h.g.Release()
}

// gateWaiter is the other half: Gate.Wait is the process side of the
// same pair and bottoms out in the coroutine yield.
type gateWaiter struct {
	g *sim.Gate
	p *sim.Proc
}

func (h *gateWaiter) OnEvent(arg uint64) { // want `handler \(\*simhotpath\.gateWaiter\)\.OnEvent may park the event loop: calls \(\*sim\.Gate\)\.Wait, which calls \(\*sim\.Proc\)\.park, which yields its coroutine to the engine`
	h.g.Wait(h.p)
}

// poker calls a func field named yield on a sim type that is not Proc.
type poker struct{ l *sim.Lookalike }

func (h *poker) OnEvent(arg uint64) { // negative: only Proc.yield is the park primitive
	h.l.Poke()
}

// fakeGate wears Release's name on a non-sim type: Release is clean
// because of what it does, not what it is called, so this still parks.
type fakeGate struct{ ch chan int }

// Release blocks on a channel.
func (f *fakeGate) Release() { f.ch <- 1 }

type fakeReleaser struct{ g *fakeGate }

func (h *fakeReleaser) OnEvent(arg uint64) { // want `handler \(\*simhotpath\.fakeReleaser\)\.OnEvent may park the event loop: calls \(\*simhotpath\.fakeGate\)\.Release, which sends on a channel`
	h.g.Release()
}

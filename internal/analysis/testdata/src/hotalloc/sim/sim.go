// Package sim is a miniature model of ibflow/internal/sim for analyzer
// fixtures: same names and shapes, and parking bottoms out in a call of
// the Proc.yield field exactly like the real engine's coroutine pair — so
// the facts layer derives Proc.Sleep/Cond.Wait parks from the one yield
// site instead of hardcoding them.
package sim

// Time is virtual time.
type Time int64

// Handler receives events scheduled with AtCall/AfterCall.
type Handler interface {
	OnEvent(arg uint64)
}

// Engine mirrors the real engine's scheduling surface.
type Engine struct{ pending int }

// At schedules fn at t.
func (e *Engine) At(t Time, fn func()) { e.pending++ }

// After schedules fn after d.
func (e *Engine) After(d Time, fn func()) { e.pending++ }

// AtCall schedules h.OnEvent(arg) at t.
func (e *Engine) AtCall(t Time, h Handler, arg uint64) { e.pending++ }

// AfterCall schedules h.OnEvent(arg) after d.
func (e *Engine) AfterCall(d Time, h Handler, arg uint64) { e.pending++ }

// Scheduled is a cancellable handle.
type Scheduled struct{}

// AtCancel schedules fn at t, cancellably.
func (e *Engine) AtCancel(t Time, fn func()) Scheduled { e.pending++; return Scheduled{} }

// Timer is a one-shot timer.
type Timer struct{ fn func() }

// NewTimer creates an unarmed timer running fn.
func NewTimer(e *Engine, fn func()) *Timer { return &Timer{fn: fn} }

// Proc is a simulated process; parking yields its coroutine.
type Proc struct {
	next  func() (struct{}, bool)
	yield func(struct{}) bool
}

func (p *Proc) park() { p.yield(struct{}{}) }

// Sleep parks the process for d of virtual time.
func (p *Proc) Sleep(d Time) { p.park() }

// Cond is a process condition variable.
type Cond struct{ waiters []*Proc }

// Wait parks p until signalled.
func (c *Cond) Wait(p *Proc) {
	c.waiters = append(c.waiters, p)
	p.park()
}

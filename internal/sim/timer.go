package sim

// Timer is a cancellable one-shot virtual timer.
//
// A Timer may be reused: Reset re-arms it. Stop prevents a pending firing.
// The callback runs as an ordinary engine event.
type Timer struct {
	eng *Engine
	fn  func()
	gen uint64 // generation; bumping it invalidates pending firings
	set bool   // true while armed
	at  Time
}

// NewTimer creates an unarmed timer that will run fn when it fires.
func NewTimer(e *Engine, fn func()) *Timer {
	return &Timer{eng: e, fn: fn}
}

// Reset (re-)arms the timer to fire d from now (saturated to [now,
// MaxTime]), cancelling any pending firing.
func (t *Timer) Reset(d Time) {
	t.gen++
	t.set = true
	t.at = t.eng.deadline(d)
	t.eng.AtCall(t.at, t, t.gen)
}

// OnEvent implements Handler: the timer fires if the armed generation in
// arg is still current (Stop/Reset bump it to invalidate stale firings).
func (t *Timer) OnEvent(gen uint64) {
	if t.gen != gen {
		return // cancelled or re-armed
	}
	t.set = false
	t.fn()
}

// Stop cancels a pending firing. It reports whether the timer was armed.
func (t *Timer) Stop() bool {
	was := t.set
	t.gen++
	t.set = false
	return was
}

// Armed reports whether the timer is waiting to fire.
func (t *Timer) Armed() bool { return t.set }

// Deadline returns the virtual time at which an armed timer will fire.
func (t *Timer) Deadline() Time { return t.at }

// Rand is a small deterministic pseudo-random source (xorshift64*) for
// simulation components that need jitter without pulling in global state.
// The zero value is invalid; use NewRand.
type Rand struct{ s uint64 }

// NewRand creates a deterministic generator from seed (0 is remapped).
func NewRand(seed uint64) *Rand {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	return &Rand{s: seed}
}

// Uint64 returns the next pseudo-random value.
func (r *Rand) Uint64() uint64 {
	x := r.s
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.s = x
	return x * 0x2545f4914f6cdd1d
}

// Intn returns a value in [0, n). n must be positive.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a value in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

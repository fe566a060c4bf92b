//go:build ibdebug

package store

import (
	"strings"
	"testing"
)

func mustPanic(t *testing.T, want string, fn func()) {
	t.Helper()
	defer func() {
		t.Helper()
		r := recover()
		if r == nil {
			t.Fatalf("no panic, want one containing %q", want)
		}
		if msg, _ := r.(string); !strings.Contains(msg, want) {
			t.Fatalf("panic %q, want one containing %q", r, want)
		}
	}()
	fn()
}

// Under ibdebug the pool knows what is out: Live turns false at Put and
// true again at the reuse, the generation counts the returns, and the two
// freelist misuses fail at the call that commits them.
func TestPoolDebugTracksLiveness(t *testing.T) {
	var p Pool[box]
	v := p.Get()
	if !p.Live(v) || p.Gen(v) != 0 {
		t.Fatalf("fresh object: live=%v gen=%d", p.Live(v), p.Gen(v))
	}
	p.Put(v)
	if p.Live(v) || p.Gen(v) != 1 {
		t.Fatalf("returned object: live=%v gen=%d, want false, 1", p.Live(v), p.Gen(v))
	}
	mustPanic(t, "double Put", func() { p.Put(v) })
	if got := p.Get(); got != v || !p.Live(v) || p.Gen(v) != 1 {
		t.Fatalf("reused object: same=%v live=%v gen=%d", got == v, p.Live(v), p.Gen(v))
	}
	mustPanic(t, "never carved", func() { p.Put(new(box)) })
	if p.Live(new(box)) {
		t.Error("Live on a foreign object")
	}
}

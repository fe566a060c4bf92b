package sim

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
)

// A Sleep wakes in place when its wake is provably the next event (see
// Proc.Sleep). These tests pin the conditions from the side where they
// fail, so the sleeper must park (TestYieldLetsSameTimeEventsRun pins the
// queue-head one); FuzzInlineWake checks the whole engine against the
// never-inlining Steps path.

// TestInlineWakeNestedReleaseParks: a process resumed by a Release on
// another process's stack is not the only coroutine above the run loop,
// so its Sleep must park and hand the CPU back to the releaser at the
// releaser's instant — even though nothing else is queued.
func TestInlineWakeNestedReleaseParks(t *testing.T) {
	e := NewEngine()
	defer e.Close()
	g := NewGate(e)
	var log []string
	pB := e.Go("B", func(p *Proc) {
		g.Wait(p)
		log = append(log, fmt.Sprintf("B@%v", p.Now()))
		p.Sleep(5)
		log = append(log, fmt.Sprintf("B-slept@%v", p.Now()))
	})
	pA := e.Go("A", func(p *Proc) {
		p.Sleep(10)
		g.Release()
		if e.Pending() != 1 {
			t.Errorf("after the nested Release %d event(s) pending, want B's wake", e.Pending())
		}
		log = append(log, fmt.Sprintf("A-back@%v", p.Now()))
	})
	if err := e.Run(MaxTime); err != nil {
		t.Fatal(err)
	}
	want := "B@10ns A-back@10ns B-slept@15ns"
	if got := strings.Join(log, " "); got != want {
		t.Errorf("order:\n got %s\nwant %s", got, want)
	}
	// A: spawn only (its sleep woke in place). B: spawn, the Release and
	// the queued wake.
	if pA.Dispatches() != 1 || pB.Dispatches() != 3 {
		t.Errorf("dispatches A=%d B=%d, want 1 and 3", pA.Dispatches(), pB.Dispatches())
	}
	if e.EventsFired() != 4 {
		t.Errorf("%d events fired, want 4 (2 spawns + 2 wakes)", e.EventsFired())
	}
}

// TestInlineWakePastLimitStaysPending: a wake beyond Run's limit is not
// taken in place; it stays queued, the clock stays at the sleep, and the
// next Run takes it from there.
func TestInlineWakePastLimitStaysPending(t *testing.T) {
	e := NewEngine()
	var woke Time = -1
	p := e.Go("sleeper", func(p *Proc) {
		p.Sleep(5)
		p.Sleep(100)
		woke = p.Now()
	})
	if err := e.Run(50); err != nil {
		t.Fatal(err)
	}
	if e.Pending() != 1 || e.Now() != 5 || woke != -1 {
		t.Errorf("after Run(50): Pending()=%d Now()=%v woke=%v, want 1, 5ns, not yet",
			e.Pending(), e.Now(), woke)
	}
	if err := e.Run(MaxTime); err != nil {
		t.Fatal(err)
	}
	if woke != 105 || e.Now() != 105 || e.EventsFired() != 3 {
		t.Errorf("after Run(MaxTime): woke=%v Now()=%v fired=%d, want 105ns, 105ns, 3",
			woke, e.Now(), e.EventsFired())
	}
	// The spawn, and the wake at 105 that had to be queued past the limit.
	if p.Dispatches() != 2 {
		t.Errorf("%d dispatches, want 2", p.Dispatches())
	}
}

// TestReleaseTailContract: a handler that schedules after a Release whose
// process woke in place panics with a message naming the contract. So
// does a second Release. A Release whose process parked without waking in
// place may be followed by more work.
func TestReleaseTailContract(t *testing.T) {
	for _, tc := range []struct {
		name   string
		other  bool // an event due before the released process's wake
		after  func(e *Engine, g2 *Gate)
		panics bool
	}{
		{"schedule-after-inline", false, func(e *Engine, _ *Gate) { e.At(20, func() {}) }, true},
		{"release-after-inline", false, func(_ *Engine, g2 *Gate) { g2.Release() }, true},
		{"schedule-after-park", true, func(e *Engine, _ *Gate) { e.At(20, func() {}) }, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := NewEngine()
			defer e.Close()
			g, g2 := NewGate(e), NewGate(e)
			e.Go("waiter", func(p *Proc) {
				g.Wait(p)
				p.Sleep(5)
				g.Wait(p)
			})
			e.Go("other", func(p *Proc) { g2.Wait(p) })
			if tc.other {
				e.At(12, func() { g2.Release() })
			}
			e.At(10, func() {
				g.Release()
				tc.after(e, g2)
			})
			var got any
			func() {
				defer func() { got = recover() }()
				_ = e.Run(MaxTime)
			}()
			msg, _ := got.(string)
			if tc.panics != strings.Contains(msg, "Release tail contract") {
				t.Errorf("recovered %v, want a tail-contract panic: %v", got, tc.panics)
			}
		})
	}
}

// Regression: every relative deadline saturates at MaxTime instead of
// wrapping round into the past, where scheduling clamps it to now.

func TestSleepMaxTimeSaturates(t *testing.T) {
	e := NewEngine()
	var log []string
	e.Go("p", func(p *Proc) {
		p.Sleep(5)
		p.Sleep(MaxTime)
		log = append(log, fmt.Sprintf("p@%d", p.Now()))
	})
	e.At(100, func() { log = append(log, "ev") })
	if err := e.Run(MaxTime); err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("ev p@%d", MaxTime); strings.Join(log, " ") != want {
		t.Errorf("log = %v, want %s", log, want)
	}
}

func TestAfterMaxTimeSaturates(t *testing.T) {
	e := NewEngine()
	var log []string
	e.At(7, func() {
		e.After(MaxTime, func() { log = append(log, fmt.Sprintf("fn@%d", e.Now())) })
	})
	e.At(50, func() { log = append(log, "ev") })
	if err := e.Run(MaxTime); err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("ev fn@%d", MaxTime); strings.Join(log, " ") != want {
		t.Errorf("log = %v, want %s", log, want)
	}
}

func TestTimerDeadlineSaturates(t *testing.T) {
	e := NewEngine()
	var firedAt []Time
	tm := NewTimer(e, func() { firedAt = append(firedAt, e.Now()) })
	e.At(7, func() {
		tm.Reset(-3)
		if tm.at != 7 {
			t.Errorf("Reset(-3) at 7ns: deadline %v, want 7ns", tm.at)
		}
		tm.Reset(MaxTime)
		if tm.at != MaxTime {
			t.Errorf("Reset(MaxTime) at 7ns: deadline %d, want MaxTime", tm.at)
		}
	})
	e.At(100, func() {})
	if err := e.Run(MaxTime); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(firedAt, []Time{MaxTime}) {
		t.Errorf("fired at %v, want only at MaxTime", firedAt)
	}
}

// FuzzInlineWake checks Run, which wakes sleepers in place, against the
// same program driven one event at a time through Steps' fire path,
// which never does. The input decodes into 1–4 processes whose scripts
// mix sleeps (zero, short, long, MaxTime), gate waits, nested Releases,
// cancelled events and posted handler events; a handler releases a gate
// in tail position or schedules more events. An optional time limit
// splits the run in two. The (process, step, virtual time) log,
// EventsFired, Now, Pending and the deadlock verdict must all match, and
// Run may only save switches, never add them.
func FuzzInlineWake(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		prog, ok := decodeInlineProg(data)
		if !ok {
			return
		}
		ref := prog.run(false)
		got := prog.run(true)
		for phase := range ref.phases {
			r, g := ref.phases[phase], got.phases[phase]
			if !slices.Equal(r.log, g.log) {
				t.Fatalf("phase %d: log differs:\nSteps %v\nRun   %v", phase, r.log, g.log)
			}
			if r.state != g.state {
				t.Fatalf("phase %d: Steps ends in %+v, Run in %+v", phase, r.state, g.state)
			}
		}
		for i := range ref.dispatches {
			if got.dispatches[i] > ref.dispatches[i] {
				t.Fatalf("process %d: %d dispatches under Run, %d under Steps", i, got.dispatches[i], ref.dispatches[i])
			}
		}
	})
}

// Script ops: a step's first byte picks the process (low two bits) and
// the op (the next three); its second byte is the op's argument.
const (
	opSleep0     = iota
	opSleepShort // 1–16 ns
	opSleepLong  // arg × 4 µs: up to ~1 ms
	opSleepMax
	opWait    // on the process's own gate
	opPost    // a handler event; the argument is its action
	opRelease // another process's gate, from this process's stack
	opCancel  // a tombstone at the queue head
	numOps
)

const (
	maxInlineSteps = 96
	handlerBudget  = 64 // events handlers may chain, per world
)

type inlineOp struct{ kind, arg byte }

type inlineProg struct {
	scripts [][]inlineOp
	limit   Time // MaxTime: one phase; otherwise Run(limit), then Run(MaxTime)
}

// inlineEntry is one line of the log: a process finishing a step, or a
// handler event firing (proc -1, step its argument).
type inlineEntry struct {
	proc, step int
	at         Time
}

type inlineState struct {
	fired    uint64
	now      Time
	pending  int
	deadlock bool
}

type inlinePhase struct {
	log   []inlineEntry
	state inlineState
}

type inlineResult struct {
	phases     []inlinePhase
	dispatches []uint64
}

func decodeInlineProg(data []byte) (inlineProg, bool) {
	if len(data) < 2 {
		return inlineProg{}, false
	}
	n := 1 + int(data[0]%4)
	prog := inlineProg{scripts: make([][]inlineOp, n), limit: MaxTime}
	if data[1]&0x80 != 0 {
		prog.limit = Time(data[1]&0x7f) * 2048
	}
	data = data[2:]
	for i := 0; i+1 < len(data) && i/2 < maxInlineSteps; i += 2 {
		p := int(data[i]) % n
		prog.scripts[p] = append(prog.scripts[p], inlineOp{kind: (data[i] >> 2) % numOps, arg: data[i+1]})
	}
	return prog, true
}

type inlineWorld struct {
	e      *Engine
	gates  []*Gate
	log    []inlineEntry
	budget int
}

// OnEvent is a posted event. Its argument's low two bits pick the action,
// the next two a gate, and the next five the delay of any event it posts.
func (w *inlineWorld) OnEvent(arg uint64) {
	w.log = append(w.log, inlineEntry{-1, int(arg), w.e.Now()})
	g := w.gates[int(arg>>2&3)%len(w.gates)]
	if arg&3 != 0 && w.budget > 0 {
		w.budget--
		w.e.AfterCall(Time(arg>>4&31), w, (arg*37+11)&0x1ff)
	}
	if arg&3 != 1 && g.Waiting() {
		g.Release() // tail position
	}
}

func (prog inlineProg) run(useRun bool) inlineResult {
	e := NewEngine()
	defer e.Close()
	w := &inlineWorld{e: e, budget: handlerBudget}
	for range prog.scripts {
		w.gates = append(w.gates, NewGate(e))
	}
	procs := make([]*Proc, len(prog.scripts))
	for i, script := range prog.scripts {
		procs[i] = e.Go(fmt.Sprint("p", i), func(p *Proc) {
			for step, op := range script {
				switch op.kind {
				case opSleep0:
					p.Sleep(0)
				case opSleepShort:
					p.Sleep(1 + Time(op.arg%16))
				case opSleepLong:
					p.Sleep(Time(op.arg) * 4 * Microsecond)
				case opSleepMax:
					p.Sleep(MaxTime)
				case opWait:
					w.gates[i].Wait(p)
				case opPost:
					e.AfterCall(Time(op.arg>>4), w, uint64(op.arg))
				case opRelease:
					if g := w.gates[int(op.arg)%len(w.gates)]; g.Waiting() {
						g.Release()
					}
				case opCancel:
					e.AtCancel(e.deadline(Time(op.arg%8)), func() {}).Cancel()
				}
				w.log = append(w.log, inlineEntry{i, step, p.Now()})
			}
		})
	}
	var res inlineResult
	limits := []Time{prog.limit}
	if prog.limit != MaxTime {
		limits = append(limits, MaxTime)
	}
	for _, limit := range limits {
		var deadlock bool
		if useRun {
			var de *DeadlockError
			deadlock = errors.As(e.Run(limit), &de)
		} else {
			// Steps(1) is run(MaxTime, 1); the limit is Run's.
			for e.run(limit, 1) == 1 {
			}
			deadlock = e.Pending() == 0 && e.nlive > 0
		}
		res.phases = append(res.phases, inlinePhase{
			log:   slices.Clone(w.log),
			state: inlineState{e.EventsFired(), e.Now(), e.Pending(), deadlock},
		})
	}
	for _, p := range procs {
		res.dispatches = append(res.dispatches, p.Dispatches())
	}
	return res
}

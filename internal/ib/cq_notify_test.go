package ib

import (
	"testing"
	"unsafe"

	"ibflow/internal/sim"
)

// notifyRec records every notify firing with its virtual time.
type notifyRec struct {
	eng   *sim.Engine
	times []sim.Time
}

func (n *notifyRec) OnEvent(uint64) { n.times = append(n.times, n.eng.Now()) }

// cqWaiter is a blocking CQ read built from the one wake path: the
// process arms the CQ and parks on a gate, and the notification
// releases it.
type cqWaiter struct {
	cq   *CQ
	gate *sim.Gate
}

func newCQWaiter(eng *sim.Engine, cq *CQ) *cqWaiter {
	w := &cqWaiter{cq: cq, gate: sim.NewGate(eng)}
	cq.SetNotify(w)
	return w
}

func (w *cqWaiter) OnEvent(uint64) { w.gate.Release() }

// wait parks p until the CQ holds a completion, without consuming it.
func (w *cqWaiter) wait(p *sim.Proc) {
	if w.cq.Len() == 0 {
		w.cq.Arm()
		w.gate.Wait(p)
	}
}

// TestCQNotifyCompletionAfterArm is the steady-state shape: arm an empty
// CQ, a completion lands later, exactly one notification fires at the
// completion's time — and a second completion without a re-arm stays
// silent (one-shot discipline).
func TestCQNotifyCompletionAfterArm(t *testing.T) {
	eng, qp0, qp1, _, cq1 := pair(DefaultConfig())
	rec := &notifyRec{eng: eng}
	cq1.SetNotify(rec)
	cq1.Arm()
	if !cq1.armed {
		t.Fatal("Arm on empty CQ did not latch")
	}
	qp1.PostRecv(1, make([]byte, 8))
	qp1.PostRecv(2, make([]byte, 8))
	qp0.PostSend(1, []byte("a"))
	eng.At(200*sim.Microsecond, func() { qp0.PostSend(2, []byte("b")) })
	if err := eng.Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}
	if len(rec.times) != 1 {
		t.Fatalf("notify fired %d times, want 1 (one-shot): %v", len(rec.times), rec.times)
	}
	if cq1.Len() != 2 {
		t.Errorf("CQ has %d completions, want 2", cq1.Len())
	}
	if rec.times[0] >= 200*sim.Microsecond {
		t.Errorf("notify at %v: fired for the second completion, not the first", rec.times[0])
	}
}

// TestCQNotifyCompletionBeforeArm closes the poll/arm race: arming a CQ
// that already holds completions must notify immediately (as an event at
// the current time), never strand the handler.
func TestCQNotifyCompletionBeforeArm(t *testing.T) {
	eng, qp0, qp1, _, cq1 := pair(DefaultConfig())
	rec := &notifyRec{eng: eng}
	cq1.SetNotify(rec)
	qp1.PostRecv(1, make([]byte, 8))
	qp0.PostSend(1, []byte("x"))
	const armAt = 500 * sim.Microsecond
	eng.At(armAt, func() {
		if cq1.Len() == 0 {
			t.Fatal("completion not delivered before arm")
		}
		cq1.Arm()
		if cq1.armed {
			t.Error("Arm with pending completions latched instead of firing")
		}
	})
	if err := eng.Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}
	if len(rec.times) != 1 || rec.times[0] != armAt {
		t.Fatalf("notify times = %v, want exactly one at %v", rec.times, armAt)
	}
}

// TestCQNotifyRNRRearm interleaves the seam with receiver-not-ready
// retries: an armed receive CQ must stay silent across the NAK/backoff
// cycle (no completion exists yet) and fire exactly once when the
// retried send finally lands in a posted buffer.
func TestCQNotifyRNRRearm(t *testing.T) {
	eng, qp0, qp1, _, cq1 := pair(DefaultConfig())
	rec := &notifyRec{eng: eng}
	cq1.SetNotify(rec)
	cq1.Arm()
	// No receive posted: the send NAKs and retries on the RNR clock.
	qp0.PostSend(1, []byte("late"))
	// Post the buffer after two retry rounds.
	const postAt = 2*rnrTimeout + 20*sim.Microsecond
	eng.At(postAt, func() {
		if len(rec.times) != 0 {
			t.Errorf("notify fired during RNR backoff: %v", rec.times)
		}
		qp1.PostRecv(9, make([]byte, 8))
	})
	if err := eng.Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}
	if len(rec.times) != 1 {
		t.Fatalf("notify fired %d times, want 1: %v", len(rec.times), rec.times)
	}
	if rec.times[0] < postAt {
		t.Errorf("notify at %v, before the buffer was posted at %v", rec.times[0], postAt)
	}
	wc, ok := cq1.Poll()
	if !ok || wc.Opcode != OpRecvComplete || wc.WRID != 9 {
		t.Errorf("completion = %+v ok=%v, want recv WRID 9", wc, ok)
	}
}

func TestCQArmWithoutNotifyPanics(t *testing.T) {
	eng := sim.NewEngine()
	f := NewFabric(eng, DefaultConfig(), 1)
	cq := f.HCA(0).NewCQ()
	defer func() {
		if recover() == nil {
			t.Error("Arm without SetNotify did not panic")
		}
	}()
	cq.Arm()
}

// A completion is seven words, copied by value into and out of its CQ:
// its length and immediate value are 32 bits, as verbs' are.
func TestWCSize(t *testing.T) {
	if got := unsafe.Sizeof(WC{}); got != 56 {
		t.Errorf("unsafe.Sizeof(WC{}) = %d, want 56", got)
	}
}

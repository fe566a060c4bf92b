package ib

import (
	"bytes"
	"testing"

	"ibflow/internal/sim"
)

// srqQP makes a queue pair on h whose receive descriptors come from srq,
// with cq for both of its completion queues.
func srqQP(h *HCA, cq *CQ, srq *SRQ) *QP {
	qp := new(QP)
	h.InitQP(qp, cq, cq, srq)
	return qp
}

// srqPair builds a 2-node fabric where node 1's QP draws its receive
// descriptors from a shared receive queue.
func srqPair(cfg Config) (*sim.Engine, *QP, *QP, *CQ, *CQ, *SRQ) {
	eng := sim.NewEngine()
	f := NewFabric(eng, cfg, 2)
	cq0 := f.HCA(0).NewCQ()
	cq1 := f.HCA(1).NewCQ()
	qp0 := f.HCA(0).NewQP(cq0, cq0)
	srq := f.HCA(1).NewSRQ()
	qp1 := srqQP(f.HCA(1), cq1, srq)
	Connect(qp0, qp1)
	return eng, qp0, qp1, cq0, cq1, srq
}

// Two senders attached to the same SRQ must consume the shared pool in
// arrival order: buffer memory is decoupled from the QP count.
func TestSRQServesMultipleQPsFIFO(t *testing.T) {
	eng := sim.NewEngine()
	f := NewFabric(eng, DefaultConfig(), 3)
	cqRx := f.HCA(2).NewCQ()
	srq := f.HCA(2).NewSRQ()
	var senders []*QP
	for n := 0; n < 2; n++ {
		cq := f.HCA(n).NewCQ()
		tx := f.HCA(n).NewQP(cq, cq)
		rx := srqQP(f.HCA(2), cqRx, srq)
		Connect(tx, rx)
		senders = append(senders, tx)
	}
	bufs := make([][]byte, 4)
	for i := range bufs {
		bufs[i] = make([]byte, 16)
		srq.postRecv(recvWQE{wrid: uint64(100 + i), buf: bufs[i]})
	}
	senders[0].PostSend(1, []byte("from0"))
	senders[1].PostSend(2, []byte("from1"))
	if err := eng.Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}
	got := 0
	for {
		wc, ok := cqRx.Poll()
		if !ok {
			break
		}
		if wc.Opcode != OpRecvComplete || wc.Status != StatusSuccess {
			t.Fatalf("completion %d = %+v", got, wc)
		}
		got++
	}
	if got != 2 {
		t.Fatalf("delivered %d messages through the SRQ, want 2", got)
	}
	if free := srq.PostedRecvs(); free != 2 {
		t.Errorf("free descriptors = %d, want 2 (4 posted - 2 taken)", free)
	}
	st := srq.Stats()
	if st.PostedTotal != 4 || st.Taken != 2 {
		t.Errorf("stats = %+v, want PostedTotal 4, Taken 2", st)
	}
}

// An empty shared pool must produce exactly the RNR NAK semantics of an
// empty private queue: the sender retries until the pool is replenished,
// then the message lands intact.
func TestSRQEmptyPoolTriggersRNRNak(t *testing.T) {
	cfg := DefaultConfig()
	eng, qp0, _, _, cq1, srq := srqPair(cfg)
	qp0.PostSend(7, []byte("late"))
	buf := make([]byte, 16)
	eng.At(3*rnrTimeout+rnrTimeout/2, func() { srq.postRecv(recvWQE{wrid: 9, buf: buf}) })
	if err := eng.Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}
	wc, ok := cq1.Poll()
	if !ok || wc.WRID != 9 || !bytes.Equal(buf[:4], []byte("late")) {
		t.Fatalf("delivery after RNR failed: %+v ok=%v buf=%q", wc, ok, buf[:4])
	}
	if st := qp0.Stats(); st.RNRNaks < 3 {
		t.Errorf("RNRNaks = %d, want >= 3", st.RNRNaks)
	}
}

// A receiver whose SRQ never fills must exhaust the sender's retry
// budget the same way a never-posting private queue does.
func TestSRQExhaustionFreezesSender(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RNRRetryCount = 2
	eng, qp0, _, cq0, _, _ := srqPair(cfg)
	qp0.PostSend(1, []byte("doomed"))
	if err := eng.Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}
	if !qp0.failed {
		t.Fatal("QP not frozen after budget exhaustion against an empty SRQ")
	}
	wc, ok := cq0.Poll()
	if !ok || wc.Status != StatusRNRRetryExceeded {
		t.Fatalf("error completion = %+v ok=%v", wc, ok)
	}
}

// The limit event fires once per dip below the watermark, re-arming only
// after replenishment restores the free count to the threshold.
func TestSRQLimitEventHysteresis(t *testing.T) {
	eng := sim.NewEngine()
	f := NewFabric(eng, DefaultConfig(), 1)
	srq := f.HCA(0).NewSRQ()
	fired := 0
	srq.SetLimit(2, func() { fired++ })
	for i := 0; i < 4; i++ {
		srq.postRecv(recvWQE{wrid: uint64(i), buf: make([]byte, 8)})
	}
	take := func() {
		if _, ok := srq.take(); !ok {
			t.Fatal("take failed on non-empty SRQ")
		}
	}
	take() // free 3
	take() // free 2
	if fired != 0 {
		t.Fatalf("limit fired at free=2 (threshold 2): %d", fired)
	}
	take() // free 1: crosses below the watermark
	if fired != 1 {
		t.Fatalf("limit events after first dip = %d, want 1", fired)
	}
	take() // free 0: still below, must NOT re-fire
	if fired != 1 {
		t.Fatalf("limit re-fired without replenishment: %d", fired)
	}
	srq.postRecv(recvWQE{wrid: 10, buf: make([]byte, 8)}) // free 1: below threshold, stays disarmed
	take()                                                // free 0
	if fired != 1 {
		t.Fatalf("limit fired before replenishment reached the watermark: %d", fired)
	}
	srq.postRecv(recvWQE{wrid: 11, buf: make([]byte, 8)}) // free 1
	srq.postRecv(recvWQE{wrid: 12, buf: make([]byte, 8)}) // free 2: re-armed
	take()                                                // free 1: second dip
	if fired != 2 {
		t.Fatalf("limit events after second dip = %d, want 2", fired)
	}
	if st := srq.Stats(); st.LimitEvents != 2 || st.Taken != 6 {
		t.Errorf("stats = %+v, want LimitEvents 2, Taken 6", st)
	}
}

// SetLimit with zero threshold or nil callback disables the event.
func TestSRQLimitDisabled(t *testing.T) {
	eng := sim.NewEngine()
	f := NewFabric(eng, DefaultConfig(), 1)
	srq := f.HCA(0).NewSRQ()
	srq.postRecv(recvWQE{wrid: 1, buf: make([]byte, 8)})
	srq.SetLimit(0, func() { t.Error("disabled limit fired") })
	srq.take()
	srq.postRecv(recvWQE{wrid: 2, buf: make([]byte, 8)})
	srq.SetLimit(4, nil)
	srq.take()
	if st := srq.Stats(); st.LimitEvents != 0 {
		t.Errorf("LimitEvents = %d, want 0 when disabled", st.LimitEvents)
	}
}

// Construction contracts: an SRQ-attached QP rejects direct PostRecv,
// and InitQP refuses an SRQ on another adapter.
func TestSRQAttachmentValidation(t *testing.T) {
	eng := sim.NewEngine()
	f := NewFabric(eng, DefaultConfig(), 2)
	cq := f.HCA(0).NewCQ()
	srq := f.HCA(0).NewSRQ()
	qp := srqQP(f.HCA(0), cq, srq)
	if qp.SRQ() != srq {
		t.Error("SRQ() does not return the attached pool")
	}
	if srq.num != 0 || srq.hca != f.HCA(0) {
		t.Errorf("SRQ identity: num %d, hca %v", srq.num, srq.hca)
	}
	srq.SetLimit(3, func() {})
	if srq.limit != 3 {
		t.Errorf("limit = %d, want 3", srq.limit)
	}
	srq.SetLimit(0, nil)
	if plain := f.HCA(0).NewQP(cq, cq); plain.SRQ() != nil {
		t.Error("SRQ() non-nil on a private-queue QP")
	}
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("PostRecv on SRQ-attached QP", func() { qp.PostRecv(1, make([]byte, 8)) })
	mustPanic("InitQP cross-HCA", func() {
		cq1 := f.HCA(1).NewCQ()
		srqQP(f.HCA(1), cq1, srq)
	})
}

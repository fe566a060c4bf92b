package ib

import (
	"fmt"
	"testing"

	"ibflow/internal/sim"
)

// connectSet connects two endpoint sets pairwise, in index order, as
// chdev's establish does.
func connectSet(a, b []*QP) {
	for i := range a {
		Connect(a[i], b[i])
	}
}

// TestConnectSetSharedCQ: an endpoint set — several QPs per node pair —
// connected pairwise by a loop of Connect, all sharing one CQ per side. Each
// endpoint delivers independently; completions from the whole set drain
// through the shared queue.
func TestConnectSetSharedCQ(t *testing.T) {
	const epN = 4
	eng := sim.NewEngine()
	f := NewFabric(eng, DefaultConfig(), 2)
	cq0 := f.HCA(0).NewCQ()
	cq1 := f.HCA(1).NewCQ()
	var as, bs []*QP
	for ep := 0; ep < epN; ep++ {
		as = append(as, f.HCA(0).NewQP(cq0, cq0))
		bs = append(bs, f.HCA(1).NewQP(cq1, cq1))
	}
	connectSet(as, bs)
	recvBufs := make([][]byte, epN)
	for ep := 0; ep < epN; ep++ {
		if as[ep].Peer() != bs[ep] || bs[ep].Peer() != as[ep] {
			t.Fatalf("endpoint %d not connected pairwise", ep)
		}
		recvBufs[ep] = make([]byte, 16)
		bs[ep].PostRecv(uint64(100+ep), recvBufs[ep])
		as[ep].PostSend(uint64(ep), []byte(fmt.Sprintf("ep%d", ep)))
	}
	if err := eng.Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}
	sends, recvs := 0, 0
	for {
		wc, ok := cq0.Poll()
		if !ok {
			break
		}
		if wc.Opcode != OpSendComplete || wc.Status != StatusSuccess {
			t.Fatalf("sender completion = %+v", wc)
		}
		sends++
	}
	seen := map[*QP]bool{}
	for {
		wc, ok := cq1.Poll()
		if !ok {
			break
		}
		if wc.Opcode != OpRecvComplete || wc.Status != StatusSuccess {
			t.Fatalf("receiver completion = %+v", wc)
		}
		if seen[wc.QP] {
			t.Fatalf("QP %v completed twice", wc.QP)
		}
		seen[wc.QP] = true
		recvs++
	}
	if sends != epN || recvs != epN {
		t.Fatalf("drained %d sends, %d recvs through shared CQs, want %d each", sends, recvs, epN)
	}
	for ep := 0; ep < epN; ep++ {
		if got, want := string(recvBufs[ep][:3]), fmt.Sprintf("ep%d", ep); got != want {
			t.Errorf("endpoint %d payload = %q, want %q", ep, got, want)
		}
	}
}

// TestConnectSetSharedSRQ: an endpoint set whose receive side draws from
// one SRQ — the shared-pool provisioning shape under endpoint sets. The
// pool is consumed across endpoints in arrival order; descriptor
// accounting is set-wide, not per QP.
func TestConnectSetSharedSRQ(t *testing.T) {
	const epN = 3
	eng := sim.NewEngine()
	f := NewFabric(eng, DefaultConfig(), 2)
	cq0 := f.HCA(0).NewCQ()
	cq1 := f.HCA(1).NewCQ()
	srq := f.HCA(1).NewSRQ()
	var as, bs []*QP
	for ep := 0; ep < epN; ep++ {
		as = append(as, f.HCA(0).NewQP(cq0, cq0))
		bs = append(bs, srqQP(f.HCA(1), cq1, srq))
	}
	connectSet(as, bs)
	for i := 0; i < epN+2; i++ {
		srq.postRecv(recvWQE{wrid: uint64(100 + i), buf: make([]byte, 16)})
	}
	for ep := 0; ep < epN; ep++ {
		as[ep].PostSend(uint64(ep), []byte{byte(ep)})
	}
	if err := eng.Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}
	recvs := 0
	for {
		wc, ok := cq1.Poll()
		if !ok {
			break
		}
		if wc.Opcode == OpRecvComplete {
			recvs++
		}
	}
	if recvs != epN {
		t.Fatalf("delivered %d messages, want %d", recvs, epN)
	}
	if free := srq.PostedRecvs(); free != 2 {
		t.Errorf("free descriptors = %d, want 2 (%d posted - %d taken)", free, epN+2, epN)
	}
}

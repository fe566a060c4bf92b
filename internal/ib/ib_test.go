package ib

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"ibflow/internal/sim"
)

// pair builds a 2-node fabric and a connected QP pair with one CQ per node.
func pair(cfg Config) (*sim.Engine, *QP, *QP, *CQ, *CQ) {
	eng := sim.NewEngine()
	f := NewFabric(eng, cfg, 2)
	cq0 := f.HCA(0).NewCQ()
	cq1 := f.HCA(1).NewCQ()
	qp0 := f.HCA(0).NewQP(cq0, cq0)
	qp1 := f.HCA(1).NewQP(cq1, cq1)
	Connect(qp0, qp1)
	return eng, qp0, qp1, cq0, cq1
}

func TestSendDeliversPayloadInOrder(t *testing.T) {
	eng, qp0, qp1, cq0, cq1 := pair(DefaultConfig())
	bufs := make([][]byte, 3)
	for i := range bufs {
		bufs[i] = make([]byte, 16)
		qp1.PostRecv(uint64(100+i), bufs[i])
	}
	msgs := [][]byte{[]byte("alpha"), []byte("beta"), []byte("gamma")}
	for i, m := range msgs {
		qp0.PostSend(uint64(i), m)
	}
	if err := eng.Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}
	for i := range msgs {
		wc, ok := cq1.Poll()
		if !ok {
			t.Fatalf("missing recv completion %d", i)
		}
		if wc.Opcode != OpRecvComplete || wc.WRID != uint64(100+i) || int(wc.Len) != len(msgs[i]) {
			t.Errorf("recv wc %d = %+v", i, wc)
		}
		if !bytes.Equal(bufs[i][:wc.Len], msgs[i]) {
			t.Errorf("buf %d = %q, want %q", i, bufs[i][:wc.Len], msgs[i])
		}
	}
	for i := range msgs {
		wc, ok := cq0.Poll()
		if !ok || wc.Opcode != OpSendComplete || wc.WRID != uint64(i) || wc.Status != StatusSuccess {
			t.Errorf("send wc %d = %+v ok=%v", i, wc, ok)
		}
	}
	if got := qp0.Stats().MsgsSent; got != 3 {
		t.Errorf("MsgsSent = %d, want 3", got)
	}
	if got := qp1.Stats().Delivered; got != 3 {
		t.Errorf("Delivered = %d, want 3", got)
	}
}

func TestSingleMessageLatencyMatchesModel(t *testing.T) {
	cfg := DefaultConfig()
	eng, qp0, qp1, _, cq1 := pair(cfg)
	qp1.PostRecv(1, make([]byte, 64))
	var deliveredAt sim.Time = -1
	rx := newCQWaiter(eng, cq1)
	eng.Go("rx", func(p *sim.Proc) {
		rx.wait(p)
		deliveredAt = p.Now()
	})
	qp0.PostSend(1, make([]byte, 4))
	if err := eng.Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}
	// Cut-through: one serialization on the path.
	want := sendOverhead + switchLatency + txTime(4) + recvOverhead
	if deliveredAt != want {
		t.Errorf("delivered at %v, want %v", deliveredAt, want)
	}
}

func TestRNRNakRetriesUntilReceiverReady(t *testing.T) {
	cfg := DefaultConfig()
	eng, qp0, qp1, _, cq1 := pair(cfg)
	qp0.PostSend(7, []byte("late"))
	// Post the receive buffer only after 3 RNR timeouts' worth of time.
	buf := make([]byte, 16)
	eng.At(3*rnrTimeout+rnrTimeout/2, func() { qp1.PostRecv(9, buf) })
	if err := eng.Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}
	wc, ok := cq1.Poll()
	if !ok || wc.WRID != 9 || !bytes.Equal(buf[:4], []byte("late")) {
		t.Fatalf("delivery after RNR failed: %+v ok=%v buf=%q", wc, ok, buf[:4])
	}
	st := qp0.Stats()
	if st.RNRNaks < 3 {
		t.Errorf("RNRNaks = %d, want >= 3", st.RNRNaks)
	}
	if st.Retransmits < 3 {
		t.Errorf("Retransmits = %d, want >= 3", st.Retransmits)
	}
	if eng.Now() < 3*rnrTimeout {
		t.Errorf("finished at %v, before the receiver was ready", eng.Now())
	}
}

// A frozen QP completes in post order too: with no retry budget, the
// NAK of wrid 2 (500 ns back) outruns wrid 1's ack (900 ns), yet wrid 1's
// success completion must come first.
func TestRNRErrorCompletionWaitsForPredecessors(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RNRRetryCount = 0
	eng, qp0, qp1, cq0, _ := pair(cfg)
	qp1.PostRecv(9, make([]byte, 16))
	qp0.PostSend(1, []byte("lands"))
	qp0.PostSend(2, []byte("refused"))
	if err := eng.Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}
	for _, want := range []struct {
		wrid   uint64
		status Status
	}{{1, StatusSuccess}, {2, StatusRNRRetryExceeded}} {
		wc, ok := cq0.Poll()
		if !ok || wc.WRID != want.wrid || wc.Status != want.status {
			t.Fatalf("send completion = %+v ok=%v, want wrid %d %v", wc, ok, want.wrid, want.status)
		}
	}
	if wc, ok := cq0.Poll(); ok {
		t.Fatalf("completion %+v after the error completion", wc)
	}
}

// After exhaustion the owner can re-issue: ResumeStalled restarts the
// frozen stream with a fresh budget and the messages arrive in FIFO order.
func TestRNRRetryExceededResumesInOrder(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RNRRetryCount = 2
	eng, qp0, qp1, cq0, cq1 := pair(cfg)
	qp0.PostSend(1, []byte("first"))
	qp0.PostSend(2, []byte("second"))
	if err := eng.Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}
	if wc, ok := cq0.Poll(); !ok || wc.Status != StatusRNRRetryExceeded {
		t.Fatalf("no exhaustion completion: %+v ok=%v", wc, ok)
	}
	// Recovery: the receiver finally posts; the owner re-issues.
	bufs := [][]byte{make([]byte, 16), make([]byte, 16)}
	qp1.PostRecv(5, bufs[0])
	qp1.PostRecv(6, bufs[1])
	qp0.ResumeStalled()
	if err := eng.Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}
	for i, want := range []string{"first", "second"} {
		wc, ok := cq1.Poll()
		if !ok || wc.WRID != uint64(5+i) {
			t.Fatalf("recv %d = %+v ok=%v", i, wc, ok)
		}
		if got := string(bufs[i][:wc.Len]); got != want {
			t.Errorf("recv %d payload = %q, want %q (FIFO violated)", i, got, want)
		}
	}
	for i := 1; i <= 2; i++ {
		wc, ok := cq0.Poll()
		if !ok || wc.Status != StatusSuccess || wc.WRID != uint64(i) {
			t.Errorf("send completion %d = %+v ok=%v", i, wc, ok)
		}
	}
	if qp0.failed || qp0.QueuedSends() != 0 {
		t.Errorf("QP not drained after resume: failed=%v queued=%d",
			qp0.failed, qp0.QueuedSends())
	}
	// ResumeStalled on a healthy QP is a no-op.
	qp0.ResumeStalled()
	if err := eng.Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}
}

func TestGoBackNStallsStreamBehindRNR(t *testing.T) {
	cfg := DefaultConfig()
	eng, qp0, qp1, _, cq1 := pair(cfg)
	// Receiver has one buffer: message 0 lands, 1 and 2 hit RNR.
	bufs := [][]byte{make([]byte, 8), make([]byte, 8), make([]byte, 8)}
	qp1.PostRecv(0, bufs[0])
	for i := 0; i < 3; i++ {
		qp0.PostSend(uint64(i), []byte{byte('a' + i)})
	}
	// Post the remaining buffers late.
	eng.At(5*rnrTimeout, func() {
		qp1.PostRecv(1, bufs[1])
		qp1.PostRecv(2, bufs[2])
	})
	if err := eng.Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}
	var got []byte
	for {
		wc, ok := cq1.Poll()
		if !ok {
			break
		}
		got = append(got, bufs[wc.WRID][0])
	}
	if string(got) != "abc" {
		t.Errorf("delivery order %q, want abc", got)
	}
	if qp0.Stats().Retransmits == 0 {
		t.Error("expected go-back-N retransmissions")
	}
	if qp0.Stats().WastedBytes == 0 {
		t.Error("expected wasted bytes from the rewind")
	}
}

func TestThroughputApproachesLinkRate(t *testing.T) {
	cfg := DefaultConfig()
	eng, qp0, qp1, cq0, _ := pair(cfg)
	const n, size = 64, 32 * 1024
	for i := 0; i < n; i++ {
		qp1.PostRecv(uint64(i), make([]byte, size))
	}
	payload := make([]byte, size)
	for i := 0; i < n; i++ {
		qp0.PostSend(uint64(i), payload)
	}
	if err := eng.Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}
	if cq0.Len() != n {
		t.Fatalf("send completions = %d, want %d", cq0.Len(), n)
	}
	bw := float64(n*size) / eng.Now().Seconds()
	if bw < 0.85*linkBytesPerSec || bw > 1.01*linkBytesPerSec {
		t.Errorf("throughput = %.0f B/s, want near %.0f", bw, linkBytesPerSec)
	}
}

func TestIngressContentionHalvesPerSenderThroughput(t *testing.T) {
	cfg := DefaultConfig()
	eng := sim.NewEngine()
	f := NewFabric(eng, cfg, 3)
	cqs := []*CQ{f.HCA(0).NewCQ(), f.HCA(1).NewCQ(), f.HCA(2).NewCQ()}
	// Nodes 1 and 2 both blast node 0.
	const n, size = 32, 32 * 1024
	for s := 1; s <= 2; s++ {
		tx := f.HCA(s).NewQP(cqs[s], cqs[s])
		rx := f.HCA(0).NewQP(cqs[0], cqs[0])
		Connect(tx, rx)
		for i := 0; i < n; i++ {
			rx.PostRecv(uint64(i), make([]byte, size))
			tx.PostSend(uint64(i), make([]byte, size))
		}
	}
	if err := eng.Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}
	bw := float64(2*n*size) / eng.Now().Seconds()
	// Aggregate into one port cannot exceed the link rate.
	if bw > 1.01*linkBytesPerSec {
		t.Errorf("aggregate ingress %.0f B/s exceeds link rate %.0f", bw, linkBytesPerSec)
	}
	if bw < 0.8*linkBytesPerSec {
		t.Errorf("aggregate ingress %.0f B/s, link badly underutilized", bw)
	}
}

func TestRDMAWriteBypassesReceiveQueue(t *testing.T) {
	eng, qp0, qp1, cq0, cq1 := pair(DefaultConfig())
	region := make([]byte, 64)
	mr := qp1.HCA().RegisterMemory(region)
	qp0.PostWrite(42, []byte("zerocopy"), RemoteKey{MR: mr, Offset: 8})
	if err := eng.Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(region[8:16], []byte("zerocopy")) {
		t.Errorf("region = %q", region[8:16])
	}
	wc, ok := cq0.Poll()
	if !ok || wc.Opcode != OpWriteComplete || wc.WRID != 42 {
		t.Errorf("write completion = %+v ok=%v", wc, ok)
	}
	if cq1.Len() != 0 {
		t.Error("RDMA write must be invisible to the remote CQ")
	}
	if qp1.PostedRecvs() != 0 {
		t.Error("no receive descriptors should exist or be consumed")
	}
}

func TestRDMAWriteNotifySurfacesImmediate(t *testing.T) {
	eng, qp0, qp1, _, cq1 := pair(DefaultConfig())
	region := make([]byte, 32)
	mr := qp1.HCA().RegisterMemory(region)
	qp0.PostWriteNotify(1, []byte("ring"), RemoteKey{MR: mr}, 0xbeef)
	if err := eng.Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}
	wc, ok := cq1.Poll()
	if !ok || wc.Opcode != OpRecvImm || wc.Imm != 0xbeef || wc.Len != 4 {
		t.Errorf("notify completion = %+v ok=%v", wc, ok)
	}
	if !bytes.Equal(region[:4], []byte("ring")) {
		t.Errorf("region = %q", region[:4])
	}
}

// TestWriteNotifyNeedsNoReceiveDescriptor pins the verb semantics the
// ring channel is built on: RDMA write-with-notify lands in registered
// memory and surfaces OpRecvImm without consuming a receive descriptor,
// so a burst at a QP with zero posted receives must complete without a
// single RNR NAK — that is exactly why a persistent ring needs no
// receiver-side buffer posting and no credit for the wire itself.
func TestWriteNotifyNeedsNoReceiveDescriptor(t *testing.T) {
	eng, qp0, qp1, cq0, cq1 := pair(DefaultConfig())
	const n = 8
	region := make([]byte, 16*n)
	mr := qp1.HCA().RegisterMemory(region)
	for i := 0; i < n; i++ {
		qp0.PostWriteNotify(uint64(i), []byte{byte(i)}, RemoteKey{MR: mr, Offset: i * 16}, uint32(i))
	}
	if err := eng.Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		wc, ok := cq1.Poll()
		if !ok || wc.Opcode != OpRecvImm || wc.Imm != uint32(i) {
			t.Fatalf("notify %d = %+v ok=%v", i, wc, ok)
		}
		if region[i*16] != byte(i) {
			t.Errorf("slot %d payload = %d", i, region[i*16])
		}
	}
	for i := 0; i < n; i++ {
		wc, ok := cq0.Poll()
		if !ok || wc.Opcode != OpWriteComplete || wc.WRID != uint64(i) || wc.Status != StatusSuccess {
			t.Errorf("write completion %d = %+v ok=%v", i, wc, ok)
		}
	}
	if got := qp0.Stats().RNRNaks; got != 0 {
		t.Errorf("RNRNaks = %d, want 0 (write-notify must not need receive descriptors)", got)
	}
	if got := qp1.PostedRecvs(); got != 0 {
		t.Errorf("PostedRecvs = %d, want 0 (none were posted, none may be consumed)", got)
	}
}

func TestRDMARead(t *testing.T) {
	eng, qp0, qp1, cq0, _ := pair(DefaultConfig())
	region := []byte("remote-data-here")
	mr := qp1.HCA().RegisterMemory(region)
	dst := make([]byte, 6)
	qp0.PostRead(3, dst, RemoteKey{MR: mr, Offset: 7})
	if err := eng.Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}
	wc, ok := cq0.Poll()
	if !ok || wc.Opcode != OpReadComplete || wc.WRID != 3 {
		t.Errorf("read completion = %+v ok=%v", wc, ok)
	}
	if string(dst) != "data-h" {
		t.Errorf("dst = %q, want data-h", dst)
	}
}

// Deregistration (ibv_dereg_mr) ends a region: its id stops resolving,
// with its own panic, while the ids around it still resolve; the handle
// goes back to the adapter's pool for the next registration, which still
// gets a fresh id — ids are never reused — and a second deregistration of
// the same handle is refused.
func TestDeregisterMemory(t *testing.T) {
	_, qp0, qp1, _, _ := pair(DefaultConfig())
	hca := qp1.HCA()
	a, b := hca.RegisterMemory(make([]byte, 8)), hca.RegisterMemory(make([]byte, 8))
	ida := a.ID()
	hca.DeregisterMemory(a)
	mustPanicWith := func(what, want string, fn func()) {
		t.Helper()
		defer func() {
			if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), want) {
				t.Errorf("%s: panicked with %v, want %q", what, r, want)
			}
		}()
		fn()
	}
	mustPanicWith("LookupMR of the deregistered id", fmt.Sprintf("MR id %d on node 1 was deregistered", ida),
		func() { hca.LookupMR(ida) })
	if hca.LookupMR(b.ID()) != b {
		t.Error("deregistering one region unmapped its neighbour")
	}
	c := hca.RegisterMemory(make([]byte, 16))
	if c != a || c.ID() != b.ID()+1 || hca.LookupMR(c.ID()) != c {
		t.Errorf("next registration: handle reused %v, id %d (want %d)", c == a, c.ID(), b.ID()+1)
	}
	hca.DeregisterMemory(b)
	mustPanicWith("second deregistration", "which node 1 does not hold", func() { hca.DeregisterMemory(b) })
	mustPanicWith("read through a stale key", "beyond", func() { qp0.PostRead(1, make([]byte, 8), RemoteKey{MR: b}) })
}

func TestRDMABoundsArePanics(t *testing.T) {
	_, qp0, qp1, _, _ := pair(DefaultConfig())
	mr := qp1.HCA().RegisterMemory(make([]byte, 8))
	// A slice, not a map: test execution order and failure output stay
	// stable across runs (fclint simmapiter).
	for _, tc := range []struct {
		name string
		fn   func()
	}{
		{"write", func() { qp0.PostWrite(1, make([]byte, 16), RemoteKey{MR: mr}) }},
		{"read", func() { qp0.PostRead(1, make([]byte, 16), RemoteKey{MR: mr}) }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s beyond region did not panic", tc.name)
				}
			}()
			tc.fn()
		}()
	}
}

func TestConnectValidation(t *testing.T) {
	eng := sim.NewEngine()
	f := NewFabric(eng, DefaultConfig(), 2)
	cq := f.HCA(0).NewCQ()
	qp := f.HCA(0).NewQP(cq, cq)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("self-connect did not panic")
			}
		}()
		Connect(qp, qp)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("post on unconnected QP did not panic")
			}
		}()
		qp.PostSend(1, nil)
	}()
}

func TestTxAndRegTime(t *testing.T) {
	if txTime(0) <= 0 {
		t.Error("txTime(0) should still charge header bytes")
	}
	if txTime(1<<20) <= txTime(1<<10) {
		t.Error("txTime must grow with size")
	}
	if RegTime(0) != registerBase {
		t.Errorf("RegTime(0) = %v", RegTime(0))
	}
	one := RegTime(1)
	full := RegTime(pageSize)
	if one != full {
		t.Errorf("1 byte and one full page should pin the same: %v vs %v", one, full)
	}
	if RegTime(pageSize+1) != full+registerPerPage {
		t.Error("page rounding wrong")
	}
}

func TestLoopbackSkipsSwitch(t *testing.T) {
	cfg := DefaultConfig()
	eng := sim.NewEngine()
	f := NewFabric(eng, cfg, 2)
	// Two QPs on the SAME adapter: loopback.
	cq := f.HCA(0).NewCQ()
	qa := f.HCA(0).NewQP(cq, cq)
	qb := f.HCA(0).NewQP(cq, cq)
	Connect(qa, qb)
	qb.PostRecv(1, make([]byte, 8))
	var local sim.Time
	rx := newCQWaiter(eng, cq)
	eng.Go("rx", func(p *sim.Proc) {
		rx.wait(p)
		local = p.Now()
	})
	qa.PostSend(1, make([]byte, 4))
	if err := eng.Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}
	want := sendOverhead + txTime(4) + recvOverhead
	if local != want {
		t.Errorf("loopback delivery at %v, want %v (no switch latency)", local, want)
	}
}

// TestCQArmedWaitBlocksUntilEntry: a process that arms an empty CQ and
// parks on a gate resumes at the completion's own time and polls it.
func TestCQArmedWaitBlocksUntilEntry(t *testing.T) {
	eng, qp0, qp1, _, cq1 := pair(DefaultConfig())
	qp1.PostRecv(1, make([]byte, 8))
	var got WC
	var at sim.Time
	rx := newCQWaiter(eng, cq1)
	eng.Go("poller", func(p *sim.Proc) {
		rx.wait(p)
		at = p.Now()
		got, _ = cq1.Poll()
	})
	const postAt = 30 * sim.Microsecond
	eng.At(postAt, func() { qp0.PostSend(7, []byte("hi")) })
	if err := eng.Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}
	if got.Opcode != OpRecvComplete || got.WRID != 1 {
		t.Errorf("polled %+v, want the receive of WRID 1", got)
	}
	if want := postAt + sendOverhead + switchLatency + txTime(2) + recvOverhead; at != want {
		t.Errorf("woke at %v, want the completion's time %v", at, want)
	}
}

func TestEnumStrings(t *testing.T) {
	for _, tc := range []struct {
		op   Opcode
		want string
	}{
		{OpSendComplete, "SEND"}, {OpRecvComplete, "RECV"},
		{OpWriteComplete, "RDMA_WRITE"}, {OpReadComplete, "RDMA_READ"},
		{OpRecvImm, "RECV_IMM"}, {Opcode(99), "UNKNOWN"},
	} {
		if tc.op.String() != tc.want {
			t.Errorf("%d.String() = %q", tc.op, tc.op.String())
		}
	}
	if StatusSuccess.String() != "OK" || StatusRNRRetryExceeded.String() != "RNR_RETRY_EXCEEDED" {
		t.Error("status strings")
	}
	mr := func() *MR {
		eng := sim.NewEngine()
		f := NewFabric(eng, DefaultConfig(), 1)
		return f.HCA(0).RegisterMemory(make([]byte, 8))
	}()
	if s := (RemoteKey{MR: mr, Offset: 4}).String(); s == "" {
		t.Error("RemoteKey string empty")
	}
}

package ib

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"ibflow/internal/debug"
	"ibflow/internal/sim"
	"ibflow/internal/trace"
)

// countingSource is a RecvSource of size-byte descriptors that hands out
// fresh buffers of the landing length and remembers each one, so a test
// can count commits and identify the buffer a completion carries.
type countingSource struct {
	size int
	bufs [][]byte
}

func (s *countingSource) BufSize() int { return s.size }

func (s *countingSource) GetN(n int) []byte {
	b := make([]byte, n)
	s.bufs = append(s.bufs, b)
	return b
}

// forceRNR NAKs the first n deliveries that find a descriptor posted.
type forceRNR struct{ n int }

func (f *forceRNR) Bind(int, *trace.Buffer)                       {}
func (f *forceRNR) MessageDelay(sim.Time, int, int, int) sim.Time { return 0 }
func (f *forceRNR) AckDelay(sim.Time) sim.Time                    { return 0 }
func (f *forceRNR) ForceRNR(sim.Time, int) bool {
	if f.n == 0 {
		return false
	}
	f.n--
	return true
}

// The receive queue is sized by what is posted at once, not by how many
// messages passed through it: a connection that keeps 10 descriptors
// posted never drains, and the old append-only queue rewound only when
// it drained — one entry leaked per message received.
func TestRecvQueueBoundedByPosted(t *testing.T) {
	var q recvQueue
	for i := 0; i < 10; i++ {
		q.post(recvWQE{wrid: uint64(i)})
	}
	for i := 10; i < 100_010; i++ {
		w, ok := q.take()
		if !ok || w.wrid != uint64(i-10) {
			t.Fatalf("take %d = wrid %d ok=%v, want wrid %d", i, w.wrid, ok, i-10)
		}
		q.post(recvWQE{wrid: uint64(i)})
		if q.posted() != 10 {
			t.Fatalf("posted = %d after cycle %d, want 10", q.posted(), i)
		}
	}
	if q.q.Cap() > 16 {
		t.Errorf("ring holds %d slots for 10 posted descriptors, want <= 16", q.q.Cap())
	}
	// Growth past a wrapped head keeps FIFO order; popped slots are zeroed.
	for i := 0; i < 30; i++ {
		q.post(recvWQE{wrid: uint64(100_010 + i), buf: make([]byte, 1)})
	}
	for i := 0; i < 40; i++ {
		if w, _ := q.take(); w.wrid != uint64(100_000+i) {
			t.Fatalf("after growth: take %d = wrid %d, want %d", i, w.wrid, 100_000+i)
		}
	}
	if _, ok := q.take(); ok {
		t.Error("take on an empty queue succeeded")
	}
	// The ring zeroes what it pops (store's own test); the queue's part
	// is its first ring, which stays behind when the queue outgrows it.
	for i, w := range q.first {
		if w.buf != nil || w.src != nil {
			t.Fatalf("first-ring slot %d still pins its descriptor after the queue moved on", i)
		}
	}
}

// Get is called exactly once per accepted message, and never for a
// descriptor nothing consumed.
func TestCommitOncePerAcceptedMessage(t *testing.T) {
	eng, qp0, qp1, _, cq1 := pair(DefaultConfig())
	src := &countingSource{size: 16}
	for i := 0; i < 5; i++ {
		qp1.PostRecvFrom(uint64(i), src)
	}
	if len(src.bufs) != 0 {
		t.Fatalf("posting committed %d buffers", len(src.bufs))
	}
	msgs := []string{"alpha", "beta", "gamma"}
	for i, m := range msgs {
		qp0.PostSend(uint64(i), []byte(m))
	}
	if err := eng.Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}
	if len(src.bufs) != len(msgs) {
		t.Fatalf("%d commits for %d accepted messages", len(src.bufs), len(msgs))
	}
	if got := qp1.PostedRecvs(); got != 2 {
		t.Errorf("PostedRecvs = %d, want the 2 descriptors nothing consumed", got)
	}
	for i, m := range msgs {
		wc, ok := cq1.Poll()
		if !ok || wc.WRID != uint64(i) || int(wc.Len) != len(m) {
			t.Fatalf("recv wc %d = %+v ok=%v", i, wc, ok)
		}
		if &wc.Buf[0] != &src.bufs[i][0] || !bytes.Equal(wc.Buf[:wc.Len], []byte(m)) {
			t.Errorf("wc %d carries %q, want commit %d holding %q", i, wc.Buf[:wc.Len], i, m)
		}
	}
}

// A message the receiver refuses commits nothing: not while it is RNR
// NAKed for want of a descriptor, not when an injected ForceRNR refuses
// it with descriptors posted, and not when a go-back-N rewind drops it as
// out of order — only its eventual acceptance asks the source.
func TestRefusedMessageCommitsNothing(t *testing.T) {
	t.Run("rnr", func(t *testing.T) {
		cfg := DefaultConfig()
		eng, qp0, qp1, _, _ := pair(cfg)
		src := &countingSource{size: 16}
		qp0.PostSend(7, []byte("late"))
		eng.At(3*rnrTimeout+rnrTimeout/2, func() {
			if len(src.bufs) != 0 {
				t.Errorf("%d commits while every attempt was NAKed", len(src.bufs))
			}
			qp1.PostRecvFrom(9, src)
		})
		if err := eng.Run(sim.MaxTime); err != nil {
			t.Fatal(err)
		}
		if qp0.Stats().RNRNaks < 3 {
			t.Fatalf("RNRNaks = %d, want >= 3", qp0.Stats().RNRNaks)
		}
		if len(src.bufs) != 1 || !bytes.Equal(src.bufs[0][:4], []byte("late")) {
			t.Errorf("commits = %d, want 1 holding the message", len(src.bufs))
		}
	})
	t.Run("force-rnr", func(t *testing.T) {
		cfg := DefaultConfig()
		cfg.Faults = &forceRNR{n: 2}
		eng, qp0, qp1, _, _ := pair(cfg)
		src := &countingSource{size: 16}
		qp1.PostRecvFrom(1, src)
		qp0.PostSend(1, []byte("x"))
		eng.At(rnrTimeout, func() {
			if len(src.bufs) != 0 {
				t.Errorf("%d commits for a ForceRNR-refused message", len(src.bufs))
			}
		})
		if err := eng.Run(sim.MaxTime); err != nil {
			t.Fatal(err)
		}
		if got := qp0.Stats().RNRNaks; got != 2 {
			t.Fatalf("RNRNaks = %d, want the 2 forced", got)
		}
		if len(src.bufs) != 1 {
			t.Errorf("commits = %d, want 1", len(src.bufs))
		}
	})
	t.Run("out-of-order", func(t *testing.T) {
		cfg := DefaultConfig()
		eng, qp0, qp1, _, cq1 := pair(cfg)
		src := &countingSource{size: 1024}
		// Nothing posted: message 0 draws the NAK. Descriptors appear
		// before 1 and 2 arrive (1 KB apart on the wire), but those are
		// now out of order and are dropped with descriptors in hand; the
		// rewind redelivers all three.
		for i := 0; i < 3; i++ {
			msg := make([]byte, 1024)
			msg[0] = byte('a' + i)
			qp0.PostSend(uint64(i), msg)
		}
		eng.Go("poster", func(p *sim.Proc) {
			for qp0.Stats().RNRNaks == 0 {
				p.Sleep(100 * sim.Nanosecond)
			}
			for i := 0; i < 3; i++ {
				qp1.PostRecvFrom(uint64(i), src)
			}
			wasted := qp0.Stats().WastedBytes
			p.Sleep(rnrTimeout / 2)
			if len(src.bufs) != 0 || qp0.Stats().WastedBytes == wasted {
				t.Errorf("before the rewind: %d commits, %d bytes dropped past posted descriptors; want 0 commits and drops",
					len(src.bufs), qp0.Stats().WastedBytes-wasted)
			}
		})
		if err := eng.Run(sim.MaxTime); err != nil {
			t.Fatal(err)
		}
		if len(src.bufs) != 3 || qp1.Stats().Delivered != 3 {
			t.Fatalf("commits = %d, delivered = %d, want 3 and 3", len(src.bufs), qp1.Stats().Delivered)
		}
		for i := 0; i < 3; i++ {
			if wc, _ := cq1.Poll(); wc.Buf[0] != byte('a'+i) {
				t.Errorf("wc %d carries %q", i, wc.Buf[:1])
			}
		}
	})
}

// Descriptors that carry their buffer and descriptors that commit one at
// landing share a queue: they complete in post order, each completion
// carrying the buffer its message landed in.
func TestMixedDescriptorsCompleteInPostOrder(t *testing.T) {
	eng, qp0, qp1, _, cq1 := pair(DefaultConfig())
	src := &countingSource{size: 16}
	own := [][]byte{make([]byte, 16), make([]byte, 16)}
	qp1.PostRecv(10, own[0])
	qp1.PostRecvFrom(11, src)
	qp1.PostRecv(12, own[1])
	qp1.PostRecvFrom(13, src)
	for i := 0; i < 4; i++ {
		qp0.PostSend(uint64(i), []byte(fmt.Sprintf("msg%d", i)))
	}
	if err := eng.Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}
	if len(src.bufs) != 2 {
		t.Fatalf("commits = %d, want 2", len(src.bufs))
	}
	want := [][]byte{own[0], src.bufs[0], own[1], src.bufs[1]}
	for i := range want {
		wc, ok := cq1.Poll()
		if !ok || wc.WRID != uint64(10+i) {
			t.Fatalf("wc %d = %+v ok=%v, want wrid %d", i, wc, ok, 10+i)
		}
		if &wc.Buf[0] != &want[i][0] || string(wc.Buf[:wc.Len]) != fmt.Sprintf("msg%d", i) {
			t.Errorf("wc %d landed %q in the wrong buffer", i, wc.Buf[:wc.Len])
		}
	}
}

// A message larger than the committed buffer panics exactly as it does
// into a posted one.
func TestOversizeIntoCommittedBufferPanics(t *testing.T) {
	eng, qp0, qp1, _, _ := pair(DefaultConfig())
	qp1.PostRecvFrom(1, &countingSource{size: 16})
	qp0.PostSend(1, make([]byte, 32))
	defer func() {
		r := recover()
		if r == nil || !strings.Contains(fmt.Sprint(r), "message of 32 bytes into 16-byte receive buffer") {
			t.Errorf("panic = %v, want the oversize-message panic", r)
		}
	}()
	_ = eng.Run(sim.MaxTime)
}

// The shared receive queue commits at landing like a private one, and
// descriptor-only posts count toward its limit event alike.
func TestSRQCommitsAtLanding(t *testing.T) {
	eng := sim.NewEngine()
	f := NewFabric(eng, DefaultConfig(), 3)
	cq1 := f.HCA(2).NewCQ()
	srq := f.HCA(2).NewSRQ()
	var senders [2]*QP
	for i := range senders {
		cq := f.HCA(i).NewCQ()
		senders[i] = f.HCA(i).NewQP(cq, cq)
		Connect(senders[i], srqQP(f.HCA(2), cq1, srq))
	}
	src := &countingSource{size: 16}
	fired := 0
	srq.SetLimit(2, func() {
		fired++
		srq.PostRecvFrom(99, src) // replenish from inside the event, as chdev does
	})
	for i := 0; i < 3; i++ {
		srq.PostRecvFrom(uint64(i), src)
	}
	senders[0].PostSend(0, []byte("from-a"))
	senders[1].PostSend(0, []byte("from-b"))
	if err := eng.Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}
	if len(src.bufs) != 2 {
		t.Fatalf("commits = %d for 2 accepted messages", len(src.bufs))
	}
	if fired != 1 || srq.Stats().LimitEvents != 1 {
		t.Errorf("limit events = %d (stats %d), want 1", fired, srq.Stats().LimitEvents)
	}
	if got := srq.PostedRecvs(); got != 2 {
		t.Errorf("PostedRecvs = %d, want 2 (3 posted + 1 replenished - 2 consumed)", got)
	}
	for i := 0; i < 2; i++ {
		wc, ok := cq1.Poll()
		if !ok || wc.WRID != uint64(i) || &wc.Buf[0] != &src.bufs[i][0] {
			t.Errorf("wc %d = wrid %d ok=%v, want commit %d", i, wc.WRID, ok, i)
		}
	}
}

// A region, and a send, is shorter than 2^31 bytes, because a completion
// reports its length in 32 bits: the largest region reserves without
// committing a byte, and one byte more is refused where it enters —
// ReserveMemory, InitMR, PostSend — not truncated in a completion later.
func TestRegionsFitACompletionsLength(t *testing.T) {
	h := NewFabric(sim.NewEngine(), DefaultConfig(), 1).HCA(0)
	over := math.MaxInt32
	over++ // 2^31 where int is 64 bits; negative, and refused as well, where it is 32
	mr := h.ReserveMemory(math.MaxInt32, 1<<20)
	if mr.Len() != math.MaxInt32 || mr.Committed() != 0 {
		t.Fatalf("largest reservation: len %d, committed %d; want %d, 0", mr.Len(), mr.Committed(), math.MaxInt32)
	}
	if w := mr.Window(2047<<20, 8); len(w) != 8 || mr.Committed() != extentAlign {
		t.Errorf("a window on the largest region's last granule committed %d bytes, want %d", mr.Committed(), extentAlign)
	}
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("ReserveMemory of 2^31 bytes", func() { h.ReserveMemory(over, 1<<20) })
	mustPanic("InitMR of 2^31 bytes", func() { h.InitMR(new(MR), over, over) })
	mustPanic("a 2^31-byte send", func() { checkPayload(over) })
	checkPayload(math.MaxInt32)
}

// A reserved region has its id, length and bounds from the start and no
// host bytes until its first write or read — and then only within the
// commit granule that access touched.
func TestReservedRegionCommitsAtFirstAccess(t *testing.T) {
	eng, qp0, qp1, _, _ := pair(DefaultConfig())
	h := qp1.HCA()
	w, r, idle := h.ReserveMemory(64, 64), h.ReserveMemory(64, 64), h.ReserveMemory(64, 64)
	ring := h.ReserveMemory(4*16, 16) // four 16-byte slots
	for _, mr := range []*MR{w, r, idle, ring} {
		if mr.Committed() != 0 || mr.Len() != 64 || h.LookupMR(mr.ID()) != mr {
			t.Fatalf("fresh reservation: committed=%d len=%d", mr.Committed(), mr.Len())
		}
	}
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("write beyond an uncommitted region", func() { qp0.PostWrite(1, make([]byte, 16), RemoteKey{MR: w, Offset: 56}) })
	mustPanic("write-notify beyond an uncommitted region", func() { qp0.PostWriteNotify(1, make([]byte, 16), RemoteKey{MR: w, Offset: 56}, 0) })
	mustPanic("read beyond an uncommitted region", func() { qp0.PostRead(1, make([]byte, 65), RemoteKey{MR: r}) })
	mustPanic("window beyond the region", func() { ring.Window(56, 16) })
	mustPanic("window straddling two granules", func() { ring.Window(8, 16) })
	mustPanic("granule larger than the region", func() { h.ReserveMemory(16, 32) })
	for _, mr := range []*MR{w, r, ring} {
		if mr.Committed() != 0 {
			t.Fatal("a refused access committed the region")
		}
	}
	dst, slotDst := []byte("garbage!"), []byte("garbage!")
	qp0.PostWrite(1, []byte("landed"), RemoteKey{MR: w, Offset: 8})
	qp0.PostRead(2, dst, RemoteKey{MR: r, Offset: 8})
	qp0.PostWrite(3, []byte("slot two"), RemoteKey{MR: ring, Offset: 2 * 16})
	qp0.PostRead(4, slotDst, RemoteKey{MR: ring, Offset: 3*16 + 8})
	if w.Committed() != 0 || ring.Committed() != 0 {
		t.Error("posting the write committed the region before anything landed")
	}
	if err := eng.Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}
	if w.Committed() != 64 || !bytes.Equal(w.Window(8, 6), []byte("landed")) {
		t.Errorf("written region: committed=%d bytes=%q", w.Committed(), w.Window(8, 6))
	}
	if r.Committed() != 64 || !bytes.Equal(dst, make([]byte, 8)) {
		t.Errorf("read region: committed=%d, read %q, want zeroes", r.Committed(), dst)
	}
	if idle.Committed() != 0 {
		t.Error("a region nothing touched was committed")
	}
	// The granule law: the write committed slot 2, the read slot 3, and
	// neither touched slots 0 and 1; an untouched granule reads as zeroes.
	if got := ring.Committed(); got != 2*16 {
		t.Errorf("slotted region: %d bytes committed after one slot written and one read, want 32", got)
	}
	if !bytes.Equal(slotDst, make([]byte, 8)) {
		t.Errorf("read of an untouched slot = %q, want zeroes", slotDst)
	}
	slot2 := ring.Window(2*16, 16)
	if !bytes.Equal(slot2[:8], []byte("slot two")) || ring.Committed() != 2*16 {
		t.Errorf("slot 2 = %q, committed %d: opening a committed slot must commit nothing", slot2[:8], ring.Committed())
	}
	if again := ring.Window(2*16+4, 4); &again[0] != &slot2[4] {
		t.Error("a slot's host bytes moved between two windows")
	}
	if slot0 := ring.Window(0, 16); !bytes.Equal(slot0, make([]byte, 16)) || ring.Committed() != 3*16 {
		t.Errorf("slot 0 = %q, committed %d: want zeroes and one more granule", slot0, ring.Committed())
	}
	if cap(slot2) != 16 {
		t.Errorf("slot 2 has capacity %d: a write past a granule could spill into its neighbour", cap(slot2))
	}
	if reg := h.RegisterMemory(make([]byte, 8)); reg.Committed() != 8 || reg.Len() != 8 {
		t.Errorf("registered region: committed=%d len=%d", reg.Committed(), reg.Len())
	}
}

// A granule commits the bytes windows reach, not the whole granule: the
// first window commits its extent rounded up to 64 B and capped at the
// granule and the region's end; a shorter window commits nothing and sees
// the same bytes; a longer one re-commits, keeping the old extent's bytes
// and poisoning the bytes it leaves, so a slice held across the growth
// reads damage. A registered region never re-commits.
func TestWindowCommitsWhatLands(t *testing.T) {
	h := NewFabric(sim.NewEngine(), DefaultConfig(), 1).HCA(0)
	// Granules [0,100), [100,200) and the 50-byte tail [200,250).
	ring := h.ReserveMemory(250, 100)
	steps := []struct {
		name      string
		off, n    int
		committed int
	}{
		{"10 bytes round up to 64", 0, 10, 64},
		{"80 bytes round up to 128, capped at the 100-byte granule", 170, 10, 64 + 100},
		{"1 byte rounds up to 64, capped at the region's 50-byte end", 200, 1, 64 + 100 + 50},
	}
	for _, s := range steps {
		ring.Window(s.off, s.n)
		if got := ring.Committed(); got != s.committed {
			t.Fatalf("%s: committed %d, want %d", s.name, got, s.committed)
		}
	}

	copy(ring.Window(0, 6), "prefix")
	held := ring.Window(0, 64)
	if again := ring.Window(2, 30); &again[0] != &held[2] || ring.Committed() != 214 {
		t.Errorf("a window inside the extent moved its bytes or committed %d, want 214", ring.Committed())
	}
	grown := ring.Window(0, 90)
	if got := ring.Committed(); got != 100+100+50 {
		t.Errorf("after growing granule 0 to 90 bytes: committed %d, want 250", got)
	}
	if &grown[0] == &held[0] {
		t.Fatal("a window past the extent did not re-commit")
	}
	if string(grown[:6]) != "prefix" || !bytes.Equal(grown[6:], make([]byte, 84)) {
		t.Errorf("re-committed granule = %q, want the old prefix and zeroes", grown)
	}
	if !bytes.Equal(held, bytes.Repeat([]byte{poison}, 64)) {
		t.Errorf("a slice held across the re-commit reads %q, want poison", held)
	}
	if cap(grown) != 100 {
		t.Errorf("grown granule has capacity %d: a write past it could spill into its neighbour", cap(grown))
	}

	whole := h.ReserveMemory(1000, 1000)
	whole.Window(500, 10)
	if got := whole.Committed(); got != 512 {
		t.Errorf("a region committed whole: %d bytes after a window to byte 510, want 512", got)
	}

	buf := make([]byte, 100)
	reg := h.RegisterMemory(buf)
	if w := reg.Window(90, 10); &w[0] != &buf[90] || reg.Committed() != 100 {
		t.Errorf("registered region: window not in the caller's buffer or committed %d, want 100", reg.Committed())
	}
}

// Two rings' granule tables are carved from one adapter slab, side by
// side, and never alias: a slot committed in one ring is not committed,
// and reads as zeroes, in the other.
func TestGranuleTablesNeverAlias(t *testing.T) {
	h := NewFabric(sim.NewEngine(), DefaultConfig(), 1).HCA(0)
	a, b, c := h.ReserveMemory(4*16, 16), h.ReserveMemory(4*16, 16), h.ReserveMemory(4*16, 16)
	copy(a.Window(16, 16), "ring a, slot 1")
	copy(b.Window(32, 16), "ring b, slot 2")
	c.Window(0, 16)
	if b.table != a.table+4 || c.table != b.table+4 || len(h.fabric.slabs) != 1 {
		t.Fatalf("tables %#x, %#x, %#x in %d slabs: not side by side in one slab", a.table, b.table, c.table, len(h.fabric.slabs))
	}
	if a.Committed() != 16 || b.Committed() != 16 {
		t.Errorf("committed %d and %d bytes after one slot each, want 16 and 16", a.Committed(), b.Committed())
	}
	if !bytes.Equal(b.Window(16, 16), make([]byte, 16)) || !bytes.Equal(a.Window(32, 16), make([]byte, 16)) {
		t.Error("a slot committed in one ring shows in the other")
	}
	if got := string(a.Window(16, 14)); got != "ring a, slot 1" {
		t.Errorf("ring a slot 1 = %q after ring b committed its slots", got)
	}
}

// The table slab is sized to what the adapter's untouched multi-granule
// regions can still ask for: an adapter with one 8-slot ring carves
// exactly 8 entries, and a region committed whole asks for none.
func TestOneRingCarvesItsTable(t *testing.T) {
	h := NewFabric(sim.NewEngine(), DefaultConfig(), 1).HCA(0)
	h.RegisterMemory(make([]byte, 64))
	h.ReserveMemory(64, 64).Window(0, 8)
	ring := h.ReserveMemory(8*16, 16)
	ring.Window(0, 16)
	if len(h.fabric.slabs) != 1 || len(h.fabric.slabs[0]) != 8 || h.slabLeft != 0 || h.tableDue != 0 {
		t.Errorf("one 8-slot ring: %d slabs, %d spare entries, %d still due; want one of 8 entries, 0, 0",
			len(h.fabric.slabs), h.slabLeft, h.tableDue)
	}
}

// DeregisterMemory of a ring nothing touched takes its entries off what
// the slab may hold, so the next slab is not sized for it.
func TestDeregisterUntouchedRingFreesItsEntries(t *testing.T) {
	h := NewFabric(sim.NewEngine(), DefaultConfig(), 1).HCA(0)
	kept, dropped := h.ReserveMemory(8*16, 16), h.ReserveMemory(8*16, 16)
	if h.tableDue != 16 {
		t.Fatalf("two untouched 8-slot rings owe %d entries, want 16", h.tableDue)
	}
	h.DeregisterMemory(dropped)
	kept.Window(0, 16)
	if h.slabLeft != 0 || h.tableDue != 0 {
		t.Errorf("after dropping an untouched ring: %d spare entries in the slab, %d still due; want 0, 0",
			h.slabLeft, h.tableDue)
	}
	// A touched ring already has its table: dropping it owes nothing back.
	h.DeregisterMemory(kept)
	if h.tableDue != 0 {
		t.Errorf("deregistering a touched ring moved the due count to %d", h.tableDue)
	}
}

// The granule tables are pointer-free: an extent record and a table
// slab's element hold no pointer, so the collector never scans a table.
// A field that brings one back puts every ring's table into the scan.
func TestGranuleTablesHoldNoPointers(t *testing.T) {
	for _, typ := range []reflect.Type{reflect.TypeOf(extent{}), reflect.TypeOf(Fabric{}.slabs).Elem().Elem()} {
		if path := pointerIn(typ, typ.String()); path != "" {
			t.Errorf("%v holds a pointer at %s", typ, path)
		}
	}
}

// pointerIn returns the path to the first pointer typ holds, or "".
func pointerIn(typ reflect.Type, path string) string {
	switch typ.Kind() {
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return ""
	case reflect.Array:
		return pointerIn(typ.Elem(), path+"[]")
	case reflect.Struct:
		for i := range typ.NumField() {
			f := typ.Field(i)
			if p := pointerIn(f.Type, path+"."+f.Name); p != "" {
				return p
			}
		}
		return ""
	}
	return path + " (" + typ.Kind().String() + ")"
}

// A region handle is six words: the adapter, four 32-bit fields (id,
// length, granule, table name) and a whole-commit region's bytes. A conn
// embeds one and the pin-down cache's handles are carved by the adapter's
// pool, so a word here is a word per connection end.
func TestMRSize(t *testing.T) {
	if got := unsafe.Sizeof(MR{}); got != 48 {
		t.Errorf("unsafe.Sizeof(MR{}) = %d, want 48", got)
	}
}

// Send WQE boxes are recycled per adapter, not per QP: a box one QP
// retires is the next one any QP of the HCA posts with. Two QPs of one
// node alternate bursts while one of them is in go-back-N recovery — its
// receiver short of descriptors, its stream NAKed, rewound and
// retransmitted — so a box freed by a retirement on one stream is reused
// on the other while stale attempts of its old neighbours are still on
// the wire. Under -tags ibdebug the liveness assertions in transmit and
// deliver would catch any reference to a recycled box.
func TestWQEBoxesRecycleAcrossQPs(t *testing.T) {
	cfg := DefaultConfig()
	eng := sim.NewEngine()
	f := NewFabric(eng, cfg, 3)
	cq0, cq1, cq2 := f.HCA(0).NewCQ(), f.HCA(1).NewCQ(), f.HCA(2).NewCQ()
	a, b := f.HCA(0).NewQP(cq0, cq0), f.HCA(0).NewQP(cq0, cq0)
	ra, rb := f.HCA(1).NewQP(cq1, cq1), f.HCA(2).NewQP(cq2, cq2)
	Connect(a, ra)
	Connect(b, rb)

	const rounds, burst = 8, 3
	usedBy := map[*sendWQE][2]bool{}
	var boxes []*sendWQE // usedBy's keys, in order of first use
	post := func(qp *QP, who int, seq int) {
		qp.PostSend(uint64(seq), []byte{byte(who), byte(seq)})
		tail := *qp.queue.At(qp.queue.Len() - 1)
		u, seen := usedBy[tail]
		if !seen {
			boxes = append(boxes, tail)
		}
		u[who] = true
		usedBy[tail] = u
	}
	recvA, recvB := make([][]byte, rounds*burst), make([][]byte, rounds*burst)
	for i := range recvA {
		recvA[i], recvB[i] = make([]byte, 2), make([]byte, 2)
	}
	for r := 0; r < rounds; r++ {
		// b's receiver is ready for the whole round; a's has one
		// descriptor for a burst of three: the first lands and retires,
		// the second is NAKed, the third arrives out of order and is
		// dropped.
		for k := 0; k < burst; k++ {
			rb.PostRecv(uint64(r*burst+k), recvB[r*burst+k])
		}
		ra.PostRecv(uint64(r*burst), recvA[r*burst])
		for k := 0; k < burst; k++ {
			post(a, 0, r*burst+k)
		}
		// Past the first retirement, inside a's RNR back-off: b posts
		// with whatever a's stream has freed.
		if err := eng.Run(eng.Now() + rnrTimeout/2); err != nil {
			t.Fatal(err)
		}
		if !a.stalled || a.QueuedSends() != burst-1 {
			t.Fatalf("round %d: a stalled=%v with %d queued, want an RNR back-off holding %d", r, a.stalled, a.QueuedSends(), burst-1)
		}
		for k := 0; k < burst; k++ {
			post(b, 1, r*burst+k)
		}
		for k := 1; k < burst; k++ {
			ra.PostRecv(uint64(r*burst+k), recvA[r*burst+k])
		}
		if err := eng.Run(eng.Now() + 2*rnrTimeout); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}
	if a.QueuedSends() != 0 || b.QueuedSends() != 0 {
		t.Fatalf("sends left queued: a %d, b %d", a.QueuedSends(), b.QueuedSends())
	}
	if st := a.Stats(); st.RNRNaks < rounds || st.Retransmits < rounds*(burst-1) {
		t.Errorf("a's stream was meant to go back N every round: %+v", st)
	}
	for i := range recvA {
		if recvA[i][0] != 0 || int(recvA[i][1]) != i || recvB[i][0] != 1 || int(recvB[i][1]) != i {
			t.Fatalf("message %d: a's receiver got %v, b's %v", i, recvA[i], recvB[i])
		}
	}
	shared := 0
	for _, u := range usedBy {
		if u[0] && u[1] {
			shared++
		}
	}
	if shared == 0 {
		t.Error("no box retired by one QP was reused by the other")
	}
	// A rank keeps a handful of sends in flight: the adapter holds that
	// many boxes, not that many per QP.
	if len(usedBy) > 2*burst {
		t.Errorf("%d boxes allocated for two QPs with at most %d sends in flight", len(usedBy), 2*burst)
	}
	wqes := &f.HCA(0).wqes
	if wqes.Carved() != len(usedBy) {
		t.Errorf("the adapter carved %d boxes, its QPs posted with %d", wqes.Carved(), len(usedBy))
	}
	for _, w := range boxes {
		if debug.Enabled && wqes.Live(w) {
			t.Errorf("a box is still checked out (generation %d) with nothing queued", wqes.Gen(w))
		}
	}
}

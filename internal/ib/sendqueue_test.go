package ib

import (
	"encoding/binary"
	"testing"

	"ibflow/internal/debug"
)

// The send queue is a ring indexed by seq - baseSeq: a window that never
// drains — 8 to 12 work requests queued, one retired per one posted, the
// shape of a credit-limited stream — costs nothing per post once the ring
// has the window's size, where the slide-and-rewind slice was re-made
// every time its head reached the end of its array. A go-back-N rewind in
// the middle (the receiver short of descriptors, the stream NAKed and
// retransmitted) leaves the numbering intact: completions keep arriving
// in post order on both sides (an ibdebug build also scans the ring after
// every mutation, debugCheckQueue).
func TestSendQueueRingNeverDrains(t *testing.T) {
	eng, qp0, qp1, cq0, cq1 := pair(DefaultConfig())
	rbuf := make([]byte, 8)
	payloads := make([]byte, 16*8) // a slot is rewritten 16 posts later: its send retired long before
	var posted, sent, got uint64
	// starve receives are withheld — the arrivals after them find no
	// descriptor — and owed back once the sender has been NAKed.
	starve, owed, naks := 0, 0, uint64(0)
	post := func() {
		p := payloads[posted%16*8:][:8]
		binary.LittleEndian.PutUint64(p, posted)
		qp0.PostSend(posted, p)
		posted++
	}
	drain := func() {
		t.Helper()
		for {
			wc, ok := cq1.Poll()
			if !ok {
				break
			}
			if seq := binary.LittleEndian.Uint64(wc.Buf); seq != got {
				t.Fatalf("receiver got message %d, want %d", seq, got)
			}
			got++
			if starve > 0 {
				starve--
				owed++
			} else {
				qp1.PostRecv(0, rbuf)
			}
		}
		for {
			wc, ok := cq0.Poll()
			if !ok {
				break
			}
			if wc.WRID != sent || wc.Status != StatusSuccess {
				t.Fatalf("send completion %d (%v), want %d in post order", wc.WRID, wc.Status, sent)
			}
			sent++
		}
	}
	// cycle retires at least one send, then refills the queue to 12: it
	// holds between 8 and 12 throughout and is never empty.
	cycle := func() {
		for before := sent; sent == before; drain() {
			if eng.Steps(1) == 0 {
				t.Fatalf("engine idle with %d sends queued", qp0.QueuedSends())
			}
			if starve == 0 && qp0.Stats().RNRNaks > naks {
				for ; owed > 0; owed-- {
					qp1.PostRecv(0, rbuf) // the starved receiver catches up
				}
			}
		}
		for qp0.QueuedSends() < 12 {
			post()
		}
		if n := qp0.QueuedSends(); n < 8 {
			t.Fatalf("send queue fell to %d", n)
		}
	}
	for i := 0; i < 12; i++ {
		qp1.PostRecv(0, rbuf)
	}
	for qp0.QueuedSends() < 12 {
		post()
	}
	for i := 0; i < 200; i++ { // warm-up: ring, CQs, WQE boxes, event freelist
		cycle()
	}
	// An ibdebug build's assertions box their arguments: only the plain
	// build counts.
	batch := func() {
		for i := 0; i < 2000; i++ {
			cycle()
		}
	}
	if n := testing.AllocsPerRun(2, batch); n != 0 && !debug.Enabled {
		t.Errorf("2000 posts through a full send window allocate %.0f objects, want 0", n)
	}
	starve = 12
	for i := 0; i < 200; i++ {
		cycle()
	}
	if qp0.Stats().RNRNaks == 0 || qp0.Stats().Retransmits == 0 || owed != 0 {
		t.Fatalf("the starved receiver drew no rewind: %+v, %d receives still owed", qp0.Stats(), owed)
	}
	if n := testing.AllocsPerRun(2, batch); n != 0 && !debug.Enabled {
		t.Errorf("after the rewind 2000 posts allocate %.0f objects, want 0", n)
	}
	if posted < 10_000 {
		t.Fatalf("only %d posts went through", posted)
	}
}

package mpi

import (
	"testing"

	"ibflow/internal/core"
	"ibflow/internal/sim"
	"ibflow/internal/trace"
)

func TestTraceCapturesProtocolStory(t *testing.T) {
	buf := trace.NewBuffer(4096)
	opts := DefaultOptions(core.Dynamic(1, 64))
	opts.IB.Tracer = buf
	w := NewWorld(2, opts)
	big := make([]byte, 64*1024)
	err := w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			var reqs []*Request
			for i := 0; i < 20; i++ {
				reqs = append(reqs, c.Isend(1, 0, []byte{byte(i)}))
			}
			c.Waitall(reqs...)
			c.Send(1, 1, big) // rendezvous
		} else {
			c.Compute(150 * sim.Microsecond)
			small := make([]byte, 1)
			for i := 0; i < 20; i++ {
				c.Recv(0, 0, small)
			}
			c.Recv(0, 1, big)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	wantKinds := []trace.Kind{
		trace.SendEager, trace.SendRTS, trace.SendCTS, trace.SendFin,
		trace.SendRDMAData, trace.Recv, trace.Backlogged, trace.Drained,
		trace.Grew,
	}
	seen := map[trace.Kind]bool{}
	for _, s := range buf.Summary() {
		if s.Count > 0 {
			seen[s.Kind] = true
		}
	}
	for _, k := range wantKinds {
		if !seen[k] {
			t.Errorf("trace missing %v events", k)
		}
	}
	// Events must be time-ordered.
	evs := buf.Events()
	for i := 1; i < len(evs); i++ {
		if evs[i].T < evs[i-1].T {
			t.Fatalf("trace out of order at %d", i)
		}
	}
}

func TestTraceCapturesRNRUnderHardwareScheme(t *testing.T) {
	buf := trace.NewBuffer(4096)
	opts := DefaultOptions(core.Hardware(1))
	opts.IB.Tracer = buf
	w := NewWorld(2, opts)
	err := w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			var reqs []*Request
			for i := 0; i < 30; i++ {
				reqs = append(reqs, c.Isend(1, 0, []byte{byte(i)}))
			}
			c.Waitall(reqs...)
		} else {
			c.Compute(200 * sim.Microsecond)
			small := make([]byte, 1)
			for i := 0; i < 30; i++ {
				c.Recv(0, 0, small)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	var naks, retx int
	for _, s := range buf.Summary() {
		switch s.Kind {
		case trace.RNRNak:
			naks = s.Count
		case trace.Retransmit:
			retx = s.Count
		}
	}
	if naks == 0 || retx == 0 {
		t.Errorf("hardware flood should trace NAKs (%d) and retransmits (%d)", naks, retx)
	}
}

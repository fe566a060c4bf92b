package mpi

import (
	"slices"
	"testing"

	"ibflow/internal/chdev"
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

// Every message has one name from post to arrival: the number its sending
// end gave it (trace.Event.Seq). In a two-rank run of eager, demoted,
// backlogged and rendezvous sends under each scheme, the send-eager and
// send-rts events from 0 to 1 carry 1, 2, 3, … in post order, rank 1's
// recv events of eager and RTS packets carry the same numbers in the same
// order, and every other event about a message (demoted, backlogged,
// drained, rdma-data, rdma-read, and the CTS and FIN of a rendezvous)
// names one of them.
func TestTraceNamesEveryMessage(t *testing.T) {
	seen := map[trace.Kind]bool{}
	for _, fc := range tortureSchemes {
		t.Run(fc.Kind.String(), func(t *testing.T) {
			buf := trace.NewBuffer(1 << 14)
			opts := DefaultOptions(fc)
			opts.IB.Tracer = buf
			w := NewWorld(2, opts)
			big := make([]byte, 64<<10)
			err := w.Run(func(c *Comm) {
				if c.Rank() == 0 {
					for i := 0; i < 8; i++ {
						c.Send(1, 0, []byte{byte(i)}) // demoted once the credits run out
					}
					var reqs []*Request
					for i := 0; i < 20; i++ {
						reqs = append(reqs, c.Isend(1, 0, []byte{byte(i)})) // backlogged
					}
					c.Waitall(reqs...)
					c.Send(1, 1, big)
					c.Send(1, 0, []byte{1})
					return
				}
				c.Compute(150 * sim.Microsecond)
				small := make([]byte, 1)
				for i := 0; i < 28; i++ {
					c.Recv(0, 0, small)
				}
				c.Recv(0, 1, big)
				c.Recv(0, 0, small)
			})
			if err != nil {
				t.Fatal(err)
			}
			var sent, arrived []uint32
			named := map[uint32]bool{}
			for _, e := range buf.Events() {
				seen[e.Kind] = true
				switch {
				case e.Rank == 0 && e.Peer == 1 && (e.Kind == trace.SendEager || e.Kind == trace.SendRTS):
					sent = append(sent, e.Seq)
					named[e.Seq] = true
				case e.Rank == 1 && e.Peer == 0 && e.Kind == trace.Recv &&
					(e.Arg == int64(chdev.PktEager) || e.Arg == int64(chdev.PktRTS)):
					arrived = append(arrived, e.Seq)
				}
			}
			if len(sent) != 30 {
				t.Fatalf("%d eager and RTS packets sent 0 -> 1, want 30", len(sent))
			}
			for i, seq := range sent {
				if seq != uint32(i+1) {
					t.Fatalf("send %d from 0 to 1 numbered %d, want %d (all: %v)", i, seq, i+1, sent)
				}
			}
			if !slices.Equal(arrived, sent) {
				t.Fatalf("rank 1 saw numbers %v arrive, rank 0 sent %v", arrived, sent)
			}
			for _, e := range buf.Events() {
				switch e.Kind {
				case trace.Demoted, trace.Backlogged, trace.Drained, trace.SendCTS, trace.SendFin,
					trace.SendRDMAData, trace.SendRDMARead:
					if !named[e.Seq] {
						t.Errorf("%v names message %d, which was never sent", e, e.Seq)
					}
				}
			}
		})
	}
	for _, k := range []trace.Kind{trace.Demoted, trace.Backlogged, trace.Drained, trace.SendCTS,
		trace.SendFin, trace.SendRDMAData, trace.SendRDMARead} {
		if !seen[k] {
			t.Errorf("no scheme traced a %v event: the run no longer reaches that path", k)
		}
	}
}

package mpi

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"

	"ibflow/internal/core"
	"ibflow/internal/sim"
)

func run(t *testing.T, n int, fc core.Params, main func(c *Comm)) *World {
	t.Helper()
	w := NewWorld(n, DefaultOptions(fc))
	if err := w.Run(main); err != nil {
		t.Fatalf("Run: %v", err)
	}
	return w
}

var allSchemes = []core.Params{core.Hardware(10), core.Static(10), core.Dynamic(1, 100)}

func TestPingPongAllSchemes(t *testing.T) {
	for _, fc := range allSchemes {
		fc := fc
		t.Run(fc.Kind.String(), func(t *testing.T) {
			run(t, 2, fc, func(c *Comm) {
				buf := make([]byte, 16)
				switch c.Rank() {
				case 0:
					c.Send(1, 7, []byte("ping"))
					st := c.Recv(1, 8, buf)
					if st.Len != 4 || string(buf[:4]) != "pong" {
						c.Abort(fmt.Sprintf("bad reply %q %+v", buf[:st.Len], st))
					}
				case 1:
					st := c.Recv(0, 7, buf)
					if string(buf[:st.Len]) != "ping" {
						c.Abort("bad ping")
					}
					c.Send(0, 8, []byte("pong"))
				}
			})
		})
	}
}

func TestLatencyIsCalibrated(t *testing.T) {
	// One-way small-message latency should be in the paper's testbed
	// ballpark (~7.5 us; their RDMA-based design reached 6.8 us).
	const iters = 100
	w := run(t, 2, core.Static(100), func(c *Comm) {
		buf := make([]byte, 4)
		for i := 0; i < iters; i++ {
			if c.Rank() == 0 {
				c.Send(1, 0, buf)
				c.Recv(1, 0, buf)
			} else {
				c.Recv(0, 0, buf)
				c.Send(0, 0, buf)
			}
		}
	})
	oneWay := w.Time().Micros() / (2 * iters)
	if oneWay < 5 || oneWay > 11 {
		t.Errorf("one-way latency = %.2f us, want 5-11 us", oneWay)
	}
}

func TestMessageOrderPreservedSameTag(t *testing.T) {
	const n = 50
	run(t, 2, core.Static(4), func(c *Comm) {
		if c.Rank() == 0 {
			for i := 0; i < n; i++ {
				c.Send(1, 3, []byte{byte(i)})
			}
		} else {
			buf := make([]byte, 1)
			for i := 0; i < n; i++ {
				c.Recv(0, 3, buf)
				if buf[0] != byte(i) {
					c.Abort(fmt.Sprintf("message %d arrived out of order (got %d)", i, buf[0]))
				}
			}
		}
	})
}

func TestOrderPreservedAcrossEagerAndRendezvous(t *testing.T) {
	// Alternate small (eager) and large (rendezvous) messages on one tag;
	// non-overtaking must hold across protocols.
	big := make([]byte, 64*1024)
	for _, fc := range allSchemes {
		fc := fc
		t.Run(fc.Kind.String(), func(t *testing.T) {
			run(t, 2, fc, func(c *Comm) {
				if c.Rank() == 0 {
					for i := 0; i < 10; i++ {
						if i%2 == 0 {
							c.Send(1, 1, []byte{byte(i)})
						} else {
							big[0] = byte(i)
							c.Send(1, 1, big)
						}
					}
				} else {
					buf := make([]byte, len(big))
					for i := 0; i < 10; i++ {
						st := c.Recv(0, 1, buf)
						if buf[0] != byte(i) {
							c.Abort(fmt.Sprintf("slot %d got %d (len %d)", i, buf[0], st.Len))
						}
					}
				}
			})
		})
	}
}

func TestLargeMessageRoundTrip(t *testing.T) {
	const size = 256 * 1024
	run(t, 2, core.Static(10), func(c *Comm) {
		if c.Rank() == 0 {
			data := make([]byte, size)
			for i := range data {
				data[i] = byte(i * 7)
			}
			c.Send(1, 0, data)
		} else {
			buf := make([]byte, size)
			st := c.Recv(0, 0, buf)
			if st.Len != size {
				c.Abort("short message")
			}
			for i := range buf {
				if buf[i] != byte(i*7) {
					c.Abort(fmt.Sprintf("corruption at %d", i))
				}
			}
		}
	})
}

func TestWildcardSourceAndTag(t *testing.T) {
	run(t, 3, core.Static(10), func(c *Comm) {
		switch c.Rank() {
		case 0:
			buf := make([]byte, 8)
			seen := map[int]bool{}
			for i := 0; i < 2; i++ {
				st := c.Recv(AnySource, AnyTag, buf)
				seen[st.Source] = true
				if st.Tag != 40+st.Source {
					c.Abort("tag mismatch")
				}
			}
			if !seen[1] || !seen[2] {
				c.Abort("missing sender")
			}
		default:
			c.Send(0, 40+c.Rank(), []byte("hi"))
		}
	})
}

func TestUnexpectedMessagesMatchInArrivalOrder(t *testing.T) {
	run(t, 2, core.Static(10), func(c *Comm) {
		if c.Rank() == 0 {
			for i := 0; i < 5; i++ {
				c.Send(1, 9, []byte{byte(i)})
			}
			c.Send(1, 1, []byte("sync"))
		} else {
			// Let all five queue as unexpected first.
			sync := make([]byte, 4)
			c.Recv(0, 1, sync)
			buf := make([]byte, 1)
			for i := 0; i < 5; i++ {
				c.Recv(0, 9, buf)
				if buf[0] != byte(i) {
					c.Abort("unexpected queue out of order")
				}
			}
		}
	})
}

func TestIsendIrecvWaitall(t *testing.T) {
	const k = 8
	run(t, 2, core.Static(20), func(c *Comm) {
		var reqs []*Request
		bufs := make([][]byte, k)
		if c.Rank() == 0 {
			for i := 0; i < k; i++ {
				reqs = append(reqs, c.Isend(1, i, []byte{byte(i), byte(i)}))
			}
		} else {
			// Post in reverse tag order to exercise matching.
			for i := k - 1; i >= 0; i-- {
				bufs[i] = make([]byte, 2)
				reqs = append(reqs, c.Irecv(0, i, bufs[i]))
			}
		}
		c.Waitall(reqs...)
		if c.Rank() == 1 {
			for i := 0; i < k; i++ {
				if bufs[i][0] != byte(i) {
					c.Abort("wrong payload")
				}
			}
		}
	})
}

func TestTestPolling(t *testing.T) {
	run(t, 2, core.Static(10), func(c *Comm) {
		if c.Rank() == 0 {
			c.Compute(50 * sim.Microsecond)
			c.Send(1, 0, []byte("x"))
		} else {
			req := c.Irecv(0, 0, make([]byte, 1))
			polls := 0
			for {
				_, done := c.Test(req)
				if done {
					break
				}
				polls++
				c.Compute(sim.Microsecond)
			}
			if polls == 0 {
				c.Abort("Test returned done before the sender sent")
			}
		}
	})
}

func TestSendrecvExchange(t *testing.T) {
	run(t, 4, core.Static(10), func(c *Comm) {
		right := (c.Rank() + 1) % c.Size()
		left := (c.Rank() + c.Size() - 1) % c.Size()
		out := []byte{byte(c.Rank())}
		in := make([]byte, 1)
		c.Sendrecv(right, 0, out, left, 0, in)
		if in[0] != byte(left) {
			c.Abort("ring exchange wrong")
		}
	})
}

func TestProbe(t *testing.T) {
	run(t, 2, core.Static(10), func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 5, []byte("hello"))
		} else {
			st := c.Probe(0, AnyTag)
			if st.Tag != 5 || st.Len != 5 {
				c.Abort(fmt.Sprintf("probe %+v", st))
			}
			buf := make([]byte, st.Len)
			c.Recv(st.Source, st.Tag, buf)
			if string(buf) != "hello" {
				c.Abort("probe then recv mismatch")
			}
		}
	})
}

func TestSelfSend(t *testing.T) {
	run(t, 1, core.Static(10), func(c *Comm) {
		req := c.Irecv(0, 3, make([]byte, 4))
		c.Send(0, 3, []byte("self"))
		c.Wait(req)
		if !req.Done() || req.Status().Len != 4 {
			c.Abort("self send failed")
		}
	})
}

func TestZeroByteMessage(t *testing.T) {
	for _, fc := range allSchemes {
		fc := fc
		t.Run(fc.Kind.String(), func(t *testing.T) {
			run(t, 2, fc, func(c *Comm) {
				if c.Rank() == 0 {
					c.Send(1, 0, nil)
				} else {
					st := c.Recv(0, 0, nil)
					if st.Len != 0 {
						c.Abort("zero-byte length wrong")
					}
				}
			})
		})
	}
}

func TestDeadlockDetectedWhenRecvNeverMatches(t *testing.T) {
	w := NewWorld(2, DefaultOptions(core.Static(10)))
	err := w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			c.Recv(1, 0, make([]byte, 4)) // never sent
		}
	})
	if _, ok := err.(*sim.DeadlockError); !ok {
		t.Fatalf("err = %v, want DeadlockError", err)
	}
}

// TestOptimisticECMResolvesMutualFlood is the paper's motivation for the
// optimistic scheme, run on the device: both ranks flood each other past
// their credits, then receive. Explicit credit messages bypass credits, so
// the owed credits flow back and the flood completes. The converse — an
// ECM that needs a credit deadlocks this pattern — is a law of the model
// check in internal/core (TestModelPessimisticRuleDeadlocks).
func TestOptimisticECMResolvesMutualFlood(t *testing.T) {
	w := run(t, 2, core.Static(2), func(c *Comm) {
		peer := 1 - c.Rank()
		const burst = 8
		var reqs []*Request
		for i := 0; i < burst; i++ {
			reqs = append(reqs, c.Isend(peer, 0, []byte{byte(i)}))
		}
		buf := make([]byte, 1)
		for i := 0; i < burst; i++ {
			c.Recv(peer, 0, buf)
		}
		c.Waitall(reqs...)
	})
	if st := w.Stats(); st.ECMsSent == 0 {
		t.Errorf("no explicit credit message sent (stats %+v): the flood was meant to need one", st)
	}
}

func TestFloodWithOneBufferAllSchemes(t *testing.T) {
	// The paper's extreme case: prepost = 1 while the sender fires a
	// burst. All three schemes must deliver everything reliably.
	for _, fc := range []core.Params{core.Hardware(1), core.Static(1), core.Dynamic(1, 100)} {
		fc := fc
		t.Run(fc.Kind.String(), func(t *testing.T) {
			const n = 40
			w := run(t, 2, fc, func(c *Comm) {
				if c.Rank() == 0 {
					var reqs []*Request
					for i := 0; i < n; i++ {
						reqs = append(reqs, c.Isend(1, 0, []byte{byte(i)}))
					}
					c.Waitall(reqs...)
				} else {
					c.Compute(200 * sim.Microsecond) // let the flood pile up
					buf := make([]byte, 1)
					for i := 0; i < n; i++ {
						c.Recv(0, 0, buf)
						if buf[0] != byte(i) {
							c.Abort("out of order under pressure")
						}
					}
				}
			})
			st := w.Stats()
			switch fc.Kind {
			case core.KindHardware:
				if st.RNRNaks == 0 {
					t.Error("hardware scheme under pressure should take RNR NAKs")
				}
			case core.KindDynamic:
				if st.GrowthEvents == 0 {
					t.Error("dynamic scheme should have grown")
				}
				if st.MaxPosted <= 1 {
					t.Errorf("MaxPosted = %d, want growth beyond 1", st.MaxPosted)
				}
			case core.KindStatic:
				// A non-blocking flood cannot demote (only
				// blocking sends may wait out a handshake), so
				// starved sends accumulate in the backlog and
				// drain as explicit credit messages release
				// them — this is exactly why static is the worst
				// scheme in Figure 6.
				if st.Backlogged == 0 {
					t.Error("static scheme should have backlogged sends")
				}
			}
		})
	}
}

func TestDynamicGrowsOnlyUnderPressure(t *testing.T) {
	w := run(t, 2, core.Dynamic(4, 100), func(c *Comm) {
		// Gentle ping-pong never exceeds 4 outstanding.
		buf := make([]byte, 8)
		for i := 0; i < 30; i++ {
			if c.Rank() == 0 {
				c.Send(1, 0, buf)
				c.Recv(1, 0, buf)
			} else {
				c.Recv(0, 0, buf)
				c.Send(0, 0, buf)
			}
		}
	})
	if st := w.Stats(); st.MaxPosted != 4 || st.GrowthEvents != 0 {
		t.Errorf("dynamic grew without pressure: %+v", st)
	}
}

func TestOnDemandConnections(t *testing.T) {
	opts := DefaultOptions(core.Static(10))
	opts.Chan.OnDemand = true
	w := NewWorld(4, opts)
	err := w.Run(func(c *Comm) {
		// Ring only: 4 connections used out of 6 possible.
		right := (c.Rank() + 1) % c.Size()
		buf := make([]byte, 1)
		if c.Rank() == 0 {
			c.Send(right, 0, []byte{1})
			c.Recv(AnySource, 0, buf)
		} else {
			c.Recv(AnySource, 0, buf)
			c.Send(right, 0, []byte{1})
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	st := w.Stats()
	if st.Conns != 8 { // 4 links, counted at both ends
		t.Errorf("connections = %d, want 8 connection ends", st.Conns)
	}
	full := NewWorld(4, DefaultOptions(core.Static(10)))
	if fs := full.Stats(); fs.Conns != 12 {
		t.Errorf("static wiring = %d connection ends, want 12", fs.Conns)
	}
	if st.BufBytesInUse >= full.Stats().BufBytesInUse {
		t.Error("on-demand should use less buffer memory on a ring")
	}
}

func TestRegistrationCacheHitsOnReuse(t *testing.T) {
	big := make([]byte, 128*1024)
	w := run(t, 2, core.Static(10), func(c *Comm) {
		for i := 0; i < 5; i++ {
			if c.Rank() == 0 {
				c.Send(1, 0, big)
			} else {
				c.Recv(0, 0, big)
			}
		}
	})
	st := w.Stats()
	if st.RegMisses == 0 || st.RegHits == 0 {
		t.Errorf("pin-down cache: hits=%d misses=%d", st.RegHits, st.RegMisses)
	}
	if st.RegHits < st.RegMisses {
		t.Errorf("reused buffer should mostly hit: hits=%d misses=%d", st.RegHits, st.RegMisses)
	}
}

func TestDeterministicMakespan(t *testing.T) {
	mk := func() sim.Time {
		w := NewWorld(4, DefaultOptions(core.Dynamic(2, 64)))
		err := w.Run(func(c *Comm) {
			buf := make([]byte, 512)
			for i := 0; i < 20; i++ {
				dst := (c.Rank() + 1 + i%3) % c.Size()
				src := AnySource
				c.Sendrecv(dst, i, buf, src, i, make([]byte, 512))
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return w.Time()
	}
	first := mk()
	for i := 0; i < 3; i++ {
		if got := mk(); got != first {
			t.Fatalf("nondeterministic makespan: %v vs %v", got, first)
		}
	}
}

// Property: random small payloads with random tags arrive intact and in
// per-tag order under every scheme.
func TestPropertyPayloadIntegrity(t *testing.T) {
	prop := func(msgs [][]byte, schemeSel uint8) bool {
		if len(msgs) == 0 {
			return true
		}
		if len(msgs) > 24 {
			msgs = msgs[:24]
		}
		for i := range msgs {
			if len(msgs[i]) > 1500 {
				msgs[i] = msgs[i][:1500]
			}
		}
		fc := allSchemes[int(schemeSel)%len(allSchemes)]
		ok := true
		w := NewWorld(2, DefaultOptions(fc))
		err := w.Run(func(c *Comm) {
			if c.Rank() == 0 {
				for i, m := range msgs {
					c.Send(1, i, m)
				}
			} else {
				for i, m := range msgs {
					buf := make([]byte, len(m))
					st := c.Recv(0, i, buf)
					if st.Len != len(m) || !bytes.Equal(buf[:st.Len], m) {
						ok = false
					}
				}
			}
		})
		return err == nil && ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

package mpi

import (
	"fmt"
	"strings"
	"testing"

	"ibflow/internal/core"
	"ibflow/internal/debug"
	"ibflow/internal/sim"
)

// A buffer's registration identity is its allocation: a rendezvous
// exchange whose every buffer comes from AllocMem and goes back through
// FreeMem runs exactly as one whose every buffer is a fresh make — same
// registration hits and misses, same makespan — while the bytes really are
// recycled. Each round also re-sends from its send buffer once, so there
// are hits to keep, under both rendezvous shapes.
func TestAllocMemRegistersLikeFresh(t *testing.T) {
	const size, rounds = 16 << 10, 6
	for _, fc := range []core.Params{core.Static(8), core.RDMA(8, 1024)} {
		run := func(alloc func(c *Comm, n int) []byte, free func(c *Comm, b []byte)) (sim.Time, uint64, uint64, int) {
			w := NewWorld(2, DefaultOptions(fc))
			blocks := map[*byte]bool{}
			if err := w.Run(func(c *Comm) {
				peer := 1 - c.Rank()
				for r := range rounds {
					sb, rb := alloc(c, size), alloc(c, size)
					blocks[&sb[0]], blocks[&rb[0]] = true, true
					sb[0] = byte(r)
					c.Sendrecv(peer, r, sb, peer, r, rb)
					c.Sendrecv(peer, r, sb, peer, r, rb)
					if rb[0] != byte(r) {
						panic(fmt.Sprintf("round %d received %d", r, rb[0]))
					}
					free(c, sb)
					free(c, rb)
				}
			}); err != nil {
				t.Fatal(err)
			}
			st := w.Stats()
			return w.Time(), st.RegHits, st.RegMisses, len(blocks)
		}
		fresh := func(c *Comm, n int) []byte { return make([]byte, n) }
		dropped := func(*Comm, []byte) {}
		t0, hits0, misses0, _ := run(fresh, dropped)
		t1, hits1, misses1, distinct := run((*Comm).AllocMem, (*Comm).FreeMem)
		if t1 != t0 || hits1 != hits0 || misses1 != misses0 {
			t.Errorf("%v: recycled blocks ran %v with %d hits / %d misses, fresh buffers %v with %d / %d",
				fc.Kind, t1, hits1, misses1, t0, hits0, misses0)
		}
		if hits0 == 0 || misses0 == 0 {
			t.Errorf("%v: %d hits, %d misses: the exchange exercises only one side of the cache", fc.Kind, hits0, misses0)
		}
		if distinct != 4 {
			t.Errorf("%v: %d distinct blocks over %d rounds, want 4 (two per rank, recycled)", fc.Kind, distinct, rounds)
		}
	}
}

// Under ibdebug, FreeMem of a block a request still uses panics, naming
// the use: a receive posted and not yet matched, an outgoing rendezvous
// whose data has not moved, and an accepted incoming one under either
// shape — written into by the sender, or pulled by the receiver.
func TestFreeMemOfBusyBlockPanics(t *testing.T) {
	if !debug.Enabled {
		t.Skip("the use-after-free guard is an ibdebug assertion")
	}
	const size = 16 << 10
	// acceptThenFree lets rank 1's rendezvous arrive unexpected, accepts
	// it into a block from an Irecv and frees the block before Wait.
	acceptThenFree := func(c *Comm) {
		if c.Rank() == 1 {
			c.Send(0, 7, make([]byte, size))
			return
		}
		c.Probe(1, 7)
		buf := c.AllocMem(size)
		c.Irecv(1, 7, buf)
		c.FreeMem(buf)
	}
	for _, tc := range []struct {
		name string
		fc   core.Params
		main func(c *Comm)
		want string
	}{
		{"posted receive", core.Static(8), func(c *Comm) {
			if c.Rank() == 0 {
				buf := c.AllocMem(64)
				c.Irecv(1, 7, buf)
				c.FreeMem(buf)
			}
		}, "rank 0: FreeMem of a block a posted receive (source 1, tag 7) lands in"},
		{"rendezvous send", core.Static(8), func(c *Comm) {
			if c.Rank() == 0 {
				buf := c.AllocMem(size)
				c.Isend(1, 7, buf)
				c.FreeMem(buf)
			}
		}, "rank 0: FreeMem of a block rendezvous 1 is still sending from"},
		{"accepted rendezvous, write shape", core.Static(8), acceptThenFree,
			"rank 0: FreeMem of a block rendezvous 1 from rank 1 is still writing into"},
		{"accepted rendezvous, read shape", core.RDMA(8, 1024), acceptThenFree,
			"rank 0: FreeMem of a block rendezvous 1 from rank 1 is still reading into"},
	} {
		var got any
		func() {
			defer func() { got = recover() }()
			err := NewWorld(2, DefaultOptions(tc.fc)).Run(tc.main)
			t.Errorf("%s: Run returned %v, want FreeMem's panic", tc.name, err)
		}()
		if msg := fmt.Sprint(got); !strings.Contains(msg, tc.want) {
			t.Errorf("%s: panicked with %q, want %q", tc.name, msg, tc.want)
		}
	}
}

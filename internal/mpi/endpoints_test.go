package mpi

import (
	"fmt"
	"testing"

	"ibflow/internal/chdev"
	"ibflow/internal/core"
)

// endpointSchemes is the sweep used by the endpoint-set tests: one
// representative of every flow control family.
var endpointSchemes = []struct {
	name string
	fc   core.Params
}{
	{"hardware", core.Hardware(10)},
	{"static", core.Static(10)},
	{"dynamic", core.Dynamic(2, 64)},
	{"shared", core.Shared(16, 64)},
	{"rdma", core.RDMA(8, 1024)},
}

// TestEndpointSetSizeOneIdentity: an endpoint set of size 1 is the
// pre-endpoint device — Endpoints=1 must produce exactly the run that
// Endpoints=0 (the classic single connection) produces, for every
// scheme: same makespan, same aggregate statistics.
func TestEndpointSetSizeOneIdentity(t *testing.T) {
	for _, s := range endpointSchemes {
		s := s
		t.Run(s.name, func(t *testing.T) {
			workload := func(c *Comm) {
				buf := make([]byte, 64)
				right := (c.Rank() + 1) % c.Size()
				left := (c.Rank() + c.Size() - 1) % c.Size()
				for i := 0; i < 8; i++ {
					c.Sendrecv(right, i, []byte(fmt.Sprintf("m%02d", i)), left, i, buf)
				}
			}
			results := make([]string, 2)
			for i, eps := range []int{0, 1} {
				opts := DefaultOptions(s.fc)
				opts.Chan.Endpoints = eps
				opts.Settle = true
				w := NewWorld(4, opts)
				if err := w.Run(workload); err != nil {
					t.Fatalf("Endpoints=%d: %v", eps, err)
				}
				if err := w.Audit(); err != nil {
					t.Fatalf("Endpoints=%d audit: %v", eps, err)
				}
				results[i] = fmt.Sprintf("makespan=%v stats=%+v", w.Time(), w.Stats())
			}
			if results[0] != results[1] {
				t.Errorf("size-1 endpoint set diverged from the classic device:\n eps=0: %s\n eps=1: %s",
					results[0], results[1])
			}
		})
	}
}

// TestEndpointThreadsShareOneSetup: two logical threads on each of two
// ranks hit the same cold peer inside one on-demand setup window. The
// race must be won exactly once — one endpoint-set establishment for
// the pair, every endpoint live afterwards, no duplicate QPs.
func TestEndpointThreadsShareOneSetup(t *testing.T) {
	for _, epN := range []int{1, 2, 4} {
		epN := epN
		t.Run(fmt.Sprintf("endpoints=%d", epN), func(t *testing.T) {
			opts := DefaultOptions(core.Static(10))
			opts.Chan.OnDemand = true
			opts.Chan.Endpoints = epN
			opts.Settle = true
			w := NewWorld(2, opts)
			err := w.Run(func(c *Comm) {
				peer := 1 - c.Rank()
				// Both worker threads issue sends back to back; the
				// first one finds the pair cold and sleeps through
				// connection setup, the second must adopt the same
				// establishment rather than start another.
				r0 := c.Thread(0).Isend(peer, 0, []byte("t0"))
				r1 := c.Thread(1).Isend(peer, 1, []byte("t1"))
				buf0, buf1 := make([]byte, 8), make([]byte, 8)
				c.Waitall(r0, r1,
					c.Irecv(peer, 0, buf0), c.Irecv(peer, 1, buf1))
			})
			if err != nil {
				t.Fatal(err)
			}
			for i := range w.ranks {
				if got := w.RankStats(i).Conns; got != epN {
					t.Errorf("rank %d has %d live endpoints, want %d", i, got, epN)
				}
			}
			if setups := w.Stats().ConnSetups; setups != 1 {
				t.Errorf("%d establishments for one rank pair, want 1", setups)
			}
			if err := w.Audit(); err != nil {
				t.Errorf("audit: %v", err)
			}
		})
	}
}

// TestEndpointOnDemandLargeWorld: the on-demand path under endpoint
// sets at scale — 512 ranks exchange with ring neighbours only, so of
// the ~131k possible pairs exactly 512 are established, each as a full
// set, and the pairwise conservation audit holds across all of them.
func TestEndpointOnDemandLargeWorld(t *testing.T) {
	const n = 512
	opts := DefaultOptions(core.Static(4))
	opts.Chan.OnDemand = true
	opts.Chan.Endpoints = 2
	opts.Settle = true
	w := NewWorld(n, opts)
	err := w.Run(func(c *Comm) {
		right := (c.Rank() + 1) % c.Size()
		left := (c.Rank() + c.Size() - 1) % c.Size()
		buf := make([]byte, 8)
		// Two logical threads per rank, sticky-pinned to the two
		// endpoints of each neighbour link.
		c.Thread(c.Rank()%2).Sendrecv(right, 0, []byte("ring"), left, 0, buf)
	})
	if err != nil {
		t.Fatal(err)
	}
	st := w.Stats()
	if st.ConnSetups != n {
		t.Errorf("%d establishments, want %d (one per ring link)", st.ConnSetups, n)
	}
	if want := n * 2 * 2; st.Conns != want {
		t.Errorf("%d live endpoints, want %d (2 links/rank x 2 endpoints)", st.Conns, want)
	}
	if err := w.Audit(); err != nil {
		t.Errorf("audit: %v", err)
	}
}

// TestEndpointMultiplexAllSchemes: four simulated worker threads per
// rank multiplex a many-message exchange over a 4-endpoint set under
// every scheme; delivery, ordering per (thread, tag) stream, and the
// settled-state audit all hold.
func TestEndpointMultiplexAllSchemes(t *testing.T) {
	for _, s := range endpointSchemes {
		s := s
		t.Run(s.name, func(t *testing.T) {
			const threads, msgs = 4, 6
			opts := DefaultOptions(s.fc)
			opts.Chan.Endpoints = 4
			opts.Settle = true
			w := NewWorld(2, opts)
			err := w.Run(func(c *Comm) {
				peer := 1 - c.Rank()
				var reqs []*Request
				bufs := make([][]byte, threads*msgs)
				for tid := 0; tid < threads; tid++ {
					th := c.Thread(tid)
					for i := 0; i < msgs; i++ {
						tag := tid*msgs + i
						reqs = append(reqs, th.Isend(peer, tag, []byte(fmt.Sprintf("t%d.%d", tid, i))))
						bufs[tag] = make([]byte, 16)
						reqs = append(reqs, c.Irecv(peer, tag, bufs[tag]))
					}
				}
				c.Waitall(reqs...)
				for tid := 0; tid < threads; tid++ {
					for i := 0; i < msgs; i++ {
						want := fmt.Sprintf("t%d.%d", tid, i)
						got := string(bufs[tid*msgs+i][:len(want)])
						if got != want {
							c.Abort(fmt.Sprintf("thread %d msg %d: got %q want %q", tid, i, got, want))
						}
					}
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			for i := range w.ranks {
				st := w.RankStats(i)
				if st.Conns != 4 {
					t.Errorf("rank %d endpoints = %d, want 4", i, st.Conns)
				}
				if st.StickySels == 0 {
					t.Errorf("rank %d made no sticky selections", i)
				}
			}
			if err := w.Audit(); err != nil {
				t.Errorf("audit: %v", err)
			}
		})
	}
}

// TestWorldStatsFoldsRanks: World.Stats is the Stats.Add fold of every
// rank's Stats, and on a 4-rank on-demand world over 2-endpoint sets the
// endpoint and set-up counters keep the values the separate endpoint
// accessors reported before they were folded into Stats.
func TestWorldStatsFoldsRanks(t *testing.T) {
	s := Spec{Ranks: 4, Scheme: core.Static(4), Endpoints: 2, OnDemand: true}
	w := NewWorld(s.Ranks, s.Options())
	err := w.Run(func(c *Comm) {
		// Each rank sends three messages from each of two threads to
		// its neighbours at distance 1 and 2, and receives their twins.
		n := c.Size()
		var reqs []*Request
		for k := 1; k <= 2; k++ {
			to, from := (c.Rank()+k)%n, (c.Rank()+n-k)%n
			for tid := 0; tid < 2; tid++ {
				for i := 0; i < 3; i++ {
					tag := (k*2+tid)*3 + i
					reqs = append(reqs, c.Thread(tid).Isend(to, tag, []byte("payload")),
						c.Irecv(from, tag, make([]byte, 8)))
				}
			}
		}
		c.Waitall(reqs...)
	})
	if err != nil {
		t.Fatal(err)
	}
	fold := chdev.Stats{Rank: -1}
	for i := 0; i < s.Ranks; i++ {
		fold.Add(w.RankStats(i))
	}
	st := w.Stats()
	if st != fold {
		t.Errorf("World.Stats = %+v\nwant the fold of RankStats %+v", st, fold)
	}
	// Six rank pairs (distance 1 and 2 on a ring of 4), each a set of
	// two endpoints at both ends, one establishment each; 12 sends per
	// rank, each pinned to an endpoint by its thread.
	got := [4]int{st.Conns, int(st.StickySels), st.ConnSetups, st.OccupancyHWM}
	if want := [4]int{24, 48, 6, 2}; got != want {
		t.Errorf("Conns, StickySels, ConnSetups, OccupancyHWM = %v, want %v", got, want)
	}
}

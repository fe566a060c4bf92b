package bench

import (
	"fmt"

	"ibflow/internal/mpi"
	"ibflow/internal/runner"
)

// EndpointSeries is one scheme's sweep across the endpoint-contention
// benchmark: index i of every slice corresponds to Endpoints[i] of the
// enclosing EndpointDoc.
type EndpointSeries struct {
	Scheme string `json:"scheme"`
	// TimeMS is the incast makespan in milliseconds (virtual time) — the
	// headline: does spreading one pair's traffic over more endpoints
	// relieve head-of-line blocking at the hot receiver?
	TimeMS []float64 `json:"time_ms"`
	// Backlogged counts sends parked for lack of credits across the job.
	// More endpoints split each pair's credit budget into independent
	// lanes, so a bursty thread exhausts its own lane without starving
	// its siblings.
	Backlogged []uint64 `json:"backlogged"`
	// RNRNaks counts receiver-not-ready NAKs across the job.
	RNRNaks []uint64 `json:"rnr_naks"`
	// OccupancyHWM is the worst single-endpoint outstanding-WQE count
	// anywhere in the job — contention as the wire sees it.
	OccupancyHWM []int `json:"occupancy_hwm"`
	// StickySels counts endpoint selections made by the sticky policy
	// (zero when every pair has a single endpoint: selection short-
	// circuits without counting, keeping the hot path identical).
	StickySels []uint64 `json:"sticky_sels"`
	// BufBytesHWM is the per-rank receive-buffer memory high-water mark,
	// maximized over ranks: the price of multiplying per-pair state.
	BufBytesHWM []int `json:"buf_bytes_hwm"`
}

// EndpointDoc is the machine-readable endpoint-contention document
// stored as BENCH_endpoints.json at the repo root (fcbench -test
// endpoints -json).
type EndpointDoc struct {
	Benchmark string `json:"benchmark"`
	// Endpoints is the swept set size per rank pair.
	Endpoints []int `json:"endpoints"`
	// Ranks is the world size; every rank but 0 is a sender, so the
	// incast fan-in is Ranks-1.
	Ranks int `json:"ranks"`
	// Threads is the simulated worker-thread count per sender; the
	// sticky policy pins thread t to endpoint t mod Endpoints.
	Threads int `json:"threads"`
	// Bursts and MsgsPerBurst shape the traffic: each thread fires
	// MsgsPerBurst back-to-back messages per burst and the sender drains
	// the whole burst before the next — bursty, not pipelined.
	Bursts       int `json:"bursts"`
	MsgsPerBurst int `json:"msgs_per_burst"`
	MsgSizeB     int `json:"msg_size_b"`
	Provision
	Series []EndpointSeries `json:"series"`
}

// EndpointContention measures what an endpoint set buys under
// many-to-one bursty traffic: every rank but one runs several simulated
// worker threads all bursting at rank 0, and the sweep varies how many
// VC/QP endpoints each rank pair multiplexes those threads over. With
// one endpoint all threads of a sender contend for one credit lane and
// one FIFO; with more, the sticky policy gives thread t its own lane
// (t mod Endpoints), so one thread's burst backlogs itself, not its
// siblings. The flip side is provisioning: per-connection schemes
// pre-post per endpoint, so memory at the hot receiver grows with the
// set size — the same trade the paper prices for connections, one level
// down.
func EndpointContention(o Opts) EndpointDoc {
	doc := EndpointDoc{
		Benchmark:    "endpoints",
		Endpoints:    []int{1, 2, 4, 8},
		Ranks:        16,
		Threads:      8,
		Bursts:       4,
		MsgsPerBurst: 4,
		MsgSizeB:     256,
		Provision: Provision{
			Prepost: 4, DynMax: 64, PoolPrepost: 16, PoolMax: 96,
			RingSlots: 8, SlotBytes: 1024,
		},
	}
	if o.Quick {
		doc.Ranks = 8
		doc.Bursts = 2
	}
	schemes := doc.Schemes()
	type cell struct {
		timeMS              float64
		backlogged, rnrNaks uint64
		occHWM              int
		stickySels          uint64
		bufHWM              int
	}
	ne := len(doc.Endpoints)
	cells := runner.Map(len(schemes)*ne, o.workers(), func(k int) cell {
		s := mpi.Spec{Ranks: doc.Ranks, Scheme: schemes[k/ne], Endpoints: doc.Endpoints[k%ne]}
		w := newWorld(s, nil)
		err := w.Run(endpointIncast(doc.Threads, doc.Bursts, doc.MsgsPerBurst, doc.MsgSizeB))
		if err != nil {
			panic(fmt.Sprintf("bench: endpoints %v: %v", s, err))
		}
		bufHWM := 0
		for i := 0; i < doc.Ranks; i++ {
			if b := w.RankStats(i).BufBytesHWM; b > bufHWM {
				bufHWM = b
			}
		}
		st, es := w.Stats(), w.EndpointStats()
		return cell{
			timeMS:     w.Time().Seconds() * 1e3,
			backlogged: st.Backlogged,
			rnrNaks:    st.RNRNaks,
			occHWM:     es.OccupancyHWM,
			stickySels: es.StickySels,
			bufHWM:     bufHWM,
		}
	})
	for i, fc := range schemes {
		s := EndpointSeries{Scheme: fc.Kind.String()}
		for j := range doc.Endpoints {
			c := cells[i*ne+j]
			s.TimeMS = append(s.TimeMS, c.timeMS)
			s.Backlogged = append(s.Backlogged, c.backlogged)
			s.RNRNaks = append(s.RNRNaks, c.rnrNaks)
			s.OccupancyHWM = append(s.OccupancyHWM, c.occHWM)
			s.StickySels = append(s.StickySels, c.stickySels)
			s.BufBytesHWM = append(s.BufBytesHWM, c.bufHWM)
		}
		doc.Series = append(doc.Series, s)
	}
	return doc
}

// endpointIncast returns an MPI main for the many-to-one burst: every
// rank but 0 runs `threads` simulated worker threads, each bursting
// msgs messages of size bytes at rank 0 per round, draining its burst
// before the next. Each thread tags with its own id, so per-thread FIFO
// is the only ordering the receiver relies on — exactly what the sticky
// endpoint policy guarantees.
func endpointIncast(threads, bursts, msgs, size int) func(c *mpi.Comm) {
	return func(c *mpi.Comm) {
		me, n := c.Rank(), c.Size()
		if me == 0 {
			// Slab-allocate the receive payloads and pre-size the request
			// list so the incast main's allocation count is constant per
			// rank — the world-level allocation gates measure the progress
			// engine, not the harness.
			perSrc := threads * bursts * msgs
			slab := make([]byte, (n-1)*perSrc*size)
			reqs := make([]*mpi.Request, 0, (n-1)*perSrc)
			for src := 1; src < n; src++ {
				for tid := 0; tid < threads; tid++ {
					for m := 0; m < bursts*msgs; m++ {
						off := len(reqs) * size
						reqs = append(reqs, c.Irecv(src, tid, slab[off:off+size]))
					}
				}
			}
			c.Waitall(reqs...)
			return
		}
		views := make([]*mpi.Comm, threads)
		for tid := range views {
			views[tid] = c.Thread(tid)
		}
		data := make([]byte, size)
		reqs := make([]*mpi.Request, 0, threads*msgs)
		for b := 0; b < bursts; b++ {
			reqs = reqs[:0]
			for tid := 0; tid < threads; tid++ {
				for m := 0; m < msgs; m++ {
					reqs = append(reqs, views[tid].Isend(0, tid, data))
				}
			}
			c.Waitall(reqs...)
		}
	}
}

// EndpointContentionTable renders the contention document: incast
// makespan and backlog pressure versus endpoint-set size, one row per
// (scheme, endpoints) cell.
func EndpointContentionTable(doc EndpointDoc) Table {
	t := Table{
		Title: fmt.Sprintf(
			"Endpoint contention: %d-to-1 incast, %d threads/sender, %d bursts x %d x %dB per thread",
			doc.Ranks-1, doc.Threads, doc.Bursts, doc.MsgsPerBurst, doc.MsgSizeB),
		Columns: []string{"scheme", "endpoints", "time (ms)", "backlogged", "RNR NAKs",
			"occ HWM", "sticky sels", "buf HWM (KB)"},
		Note: fmt.Sprintf(
			"sticky policy: thread t rides endpoint t mod N; per-conn schemes pre-post %d/endpoint (dynamic cap %d); shared pool %d..%d per rank; rdma ring %d x %dB slots per endpoint direction",
			doc.Prepost, doc.DynMax, doc.PoolPrepost, doc.PoolMax, doc.RingSlots, doc.SlotBytes),
	}
	for _, s := range doc.Series {
		for i, eps := range doc.Endpoints {
			t.AddRow(s.Scheme, fmt.Sprint(eps),
				fmt.Sprintf("%.3f", s.TimeMS[i]),
				fmt.Sprint(s.Backlogged[i]),
				fmt.Sprint(s.RNRNaks[i]),
				fmt.Sprint(s.OccupancyHWM[i]),
				fmt.Sprint(s.StickySels[i]),
				fmt.Sprintf("%.1f", float64(s.BufBytesHWM[i])/1024))
		}
	}
	return t
}

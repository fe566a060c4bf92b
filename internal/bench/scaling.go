package bench

import (
	"fmt"
	"sort"

	"ibflow/internal/core"
	"ibflow/internal/mpi"
	"ibflow/internal/runner"
)

// ScalingSeries is one scheme's sweep across the connection-scaling
// benchmark: index i of every slice corresponds to Ranks[i] of the
// enclosing ScalingDoc.
type ScalingSeries struct {
	Scheme string `json:"scheme"`
	// BufBytesHWM is the per-rank receive-buffer memory high-water mark,
	// maximized over ranks (the paper's Table-2 quantity, measured).
	BufBytesHWM []int `json:"buf_bytes_hwm"`
	// RNRNaks counts receiver-not-ready NAKs across the job (hardware
	// and shared schemes lean on the HCA backstop; user-level schemes
	// must stay at zero).
	RNRNaks []uint64 `json:"rnr_naks"`
	// Backlogged counts sends parked for lack of credits or degraded
	// connections.
	Backlogged []uint64 `json:"backlogged"`
	// LimitEvents counts SRQ low-watermark events (shared scheme only).
	LimitEvents []uint64 `json:"limit_events"`
	// TimeMS is the job makespan in milliseconds (virtual time).
	TimeMS []float64 `json:"time_ms"`
}

// ScalingDoc is the machine-readable connection-scaling document stored
// as BENCH_scaling.json at the repo root (fcbench -test scaling -json).
type ScalingDoc struct {
	Benchmark   string `json:"benchmark"`
	Ranks       []int  `json:"ranks"`
	MsgsPerPeer int    `json:"msgs_per_peer"`
	MsgSizeB    int    `json:"msg_size_b"`
	Provision
	// Fanout caps how many peers each rank exchanges traffic with (the
	// storm stays all-to-all while n-1 <= Fanout). Eagerly wired worlds
	// still provision buffers for all n-1 connections, so the memory
	// story is unchanged — idle connections are exactly what cost memory
	// under per-connection schemes.
	Fanout int `json:"fanout"`
	// FatTreeFrom, LeafRadix, Oversub and Rails describe the large-row
	// interconnect: rank counts >= FatTreeFrom run on a two-level fat
	// tree of LeafRadix-port leaves, Oversub-to-1 oversubscribed, with
	// Rails-wide multi-rail ports. Smaller rows keep the paper's
	// crossbar testbed.
	FatTreeFrom int `json:"fat_tree_from"`
	LeafRadix   int `json:"leaf_radix"`
	Oversub     int `json:"oversub"`
	Rails       int `json:"rails"`
	// OnDemandFrom is the rank count at which worlds switch to on-demand
	// connection establishment: eagerly wiring ~n^2/2 connections with
	// pre-posted buffers is the scaling barrier itself, and lazy setup
	// is how MVAPICH-era MPIs reached thousands of ranks at all.
	OnDemandFrom int             `json:"on_demand_from"`
	Series       []ScalingSeries `json:"series"`
}

// Provision sizes the five schemes a sweep compares: the per-connection
// schemes pre-post Prepost buffers per peer (dynamic grows to DynMax), the
// shared pool starts at PoolPrepost per rank and grows to PoolMax, and
// the ring pins RingSlots x SlotBytes per connection direction.
type Provision struct {
	Prepost     int `json:"prepost"`
	DynMax      int `json:"dynmax"`
	PoolPrepost int `json:"pool_prepost"`
	PoolMax     int `json:"pool_max"`
	RingSlots   int `json:"ring_slots"`
	SlotBytes   int `json:"slot_bytes"`
}

// Schemes returns the five schemes p sizes.
func (p Provision) Schemes() []core.Params {
	return []core.Params{
		core.Hardware(p.Prepost),
		core.Static(p.Prepost),
		core.Dynamic(p.Prepost, p.DynMax),
		core.Shared(p.PoolPrepost, p.PoolMax),
		core.RDMA(p.RingSlots, p.SlotBytes),
	}
}

// spec is the world of one (scheme, rank-count) cell: the paper's
// crossbar testbed, the fat tree from FatTreeFrom ranks up, and on-demand
// connections from OnDemandFrom ranks up.
func (doc *ScalingDoc) spec(fc core.Params, n int) mpi.Spec {
	s := mpi.Spec{Ranks: n, Scheme: fc, OnDemand: n >= doc.OnDemandFrom}
	if n >= doc.FatTreeFrom {
		s.LeafRadix, s.Oversub, s.Rails = doc.LeafRadix, doc.Oversub, doc.Rails
	}
	return s
}

// ConnScaling measures how receive-buffer memory and flow-control
// pressure grow with the number of connected peers under each scheme:
// every rank runs a small-message storm against up to Fanout other
// ranks (all-to-all below that). Per-connection schemes provision
// buffers per peer, so their memory high-water mark grows linearly with
// the rank count; the shared scheme backs all connections with one SRQ
// pool, so its footprint is bounded by the pool maximum regardless of
// fan-in — at the price of RNR NAKs when the storm outruns watermark
// replenishment.
//
// The largest rows switch the fabric to an oversubscribed multi-rail fat
// tree (the interconnect such clusters actually run) and, from
// OnDemandFrom ranks, set connections up on demand. Every column is
// virtual, so the document is byte-identical for every worker count.
func ConnScaling(o Opts) ScalingDoc {
	doc := ScalingDoc{
		Benchmark:   "connscaling",
		Ranks:       []int{2, 4, 8, 16, 24, 64, 256, 1024},
		MsgsPerPeer: 12,
		MsgSizeB:    256,
		Provision: Provision{
			Prepost: 8, DynMax: 64, PoolPrepost: 16, PoolMax: 96,
			RingSlots: 8, SlotBytes: 1024,
		},
		Fanout:       24,
		FatTreeFrom:  64,
		LeafRadix:    32,
		Oversub:      2,
		Rails:        2,
		OnDemandFrom: 512,
	}
	if o.Quick {
		doc.Ranks = []int{2, 4, 8, 128}
		doc.MsgsPerPeer = 6
	}
	schemes := doc.Schemes()
	// Each (scheme, rank-count) cell is a share-nothing world: fan the
	// grid out across the worker pool and reassemble series in cell order.
	type cell struct {
		hwm                          int
		rnrNaks, backlogged, limitEv uint64
		timeMS                       float64
	}
	nr := len(doc.Ranks)
	cells := runner.Map(len(schemes)*nr, o.workers(), func(k int) cell {
		s := doc.spec(schemes[k/nr], doc.Ranks[k%nr])
		w := newWorld(s, nil)
		if err := w.Run(scalingStorm(doc.MsgsPerPeer, doc.MsgSizeB, doc.Fanout)); err != nil {
			panic(fmt.Sprintf("bench: connscaling %v: %v", s, err))
		}
		// The Table-2 quantity is per-process memory: take the
		// worst rank, not the job-wide sum, so the row reads as
		// "bytes a node must pin" at that cluster size.
		hwm := 0
		for i := 0; i < s.Ranks; i++ {
			if b := w.RankStats(i).BufBytesHWM; b > hwm {
				hwm = b
			}
		}
		st := w.Stats()
		return cell{
			hwm:        hwm,
			rnrNaks:    st.RNRNaks,
			backlogged: st.Backlogged,
			limitEv:    st.LimitEvents,
			timeMS:     w.Time().Seconds() * 1e3,
		}
	})
	for i, fc := range schemes {
		s := ScalingSeries{Scheme: fc.Kind.String()}
		for j := range doc.Ranks {
			c := cells[i*nr+j]
			s.BufBytesHWM = append(s.BufBytesHWM, c.hwm)
			s.RNRNaks = append(s.RNRNaks, c.rnrNaks)
			s.Backlogged = append(s.Backlogged, c.backlogged)
			s.LimitEvents = append(s.LimitEvents, c.limitEv)
			s.TimeMS = append(s.TimeMS, c.timeMS)
		}
		doc.Series = append(doc.Series, s)
	}
	return doc
}

// scalingStorm returns an MPI main in which every rank exchanges msgs
// messages of size bytes with up to fanout peers, chosen at a fixed
// stride so the peer set spans leaf switches. With fanout >= n-1 this
// is the classic all-to-all storm; above it, traffic volume stays
// O(n*fanout) while eagerly wired worlds still pay buffer memory for
// all n-1 connections. Receives are pre-posted so all traffic stays
// eager and lands on the receive-buffer machinery under test.
func scalingStorm(msgs, size, fanout int) func(c *mpi.Comm) {
	return func(c *mpi.Comm) {
		recvSrc, sendDst := stormPeers(c.Rank(), c.Size(), fanout)
		k := len(recvSrc)
		// Slab-allocate the payload buffers and pre-size the request list:
		// the storm main makes a constant number of allocations per rank
		// regardless of message count, so the world-level allocation gates
		// measure the progress engine's marginal cost, not the benchmark
		// harness's.
		recvSlab := make([]byte, k*msgs*size)
		sendSlab := make([]byte, k*msgs*size)
		reqs := make([]*mpi.Request, 0, 2*k*msgs)
		for i, src := range recvSrc {
			for m := 0; m < msgs; m++ {
				off := (i*msgs + m) * size
				reqs = append(reqs, c.Irecv(src, m, recvSlab[off:off+size]))
			}
		}
		for i, dst := range sendDst {
			for m := 0; m < msgs; m++ {
				off := (i*msgs + m) * size
				reqs = append(reqs, c.Isend(dst, m, sendSlab[off:off+size]))
			}
		}
		c.Waitall(reqs...)
	}
}

// stormPeers picks the ranks me receives from and sends to in a storm over
// n ranks: up to fanout of each, at a fixed stride so the set spans leaf
// switches, in ascending order (the classic storm's posting order):
// low-numbered ranks absorb everyone's opening burst, so the fan-in incast
// the shared pool must survive is part of the workload, not an accident of
// iteration order. With fanout >= n-1 it is everyone else.
func stormPeers(me, n, fanout int) (recvSrc, sendDst []int) {
	k := min(fanout, n-1)
	stride := (n - 1) / k
	recvSrc = make([]int, 0, k)
	sendDst = make([]int, 0, k)
	for j := 1; j <= k; j++ {
		recvSrc = append(recvSrc, ((me-j*stride)%n+n)%n)
		sendDst = append(sendDst, (me+j*stride)%n)
	}
	sort.Ints(recvSrc)
	sort.Ints(sendDst)
	return recvSrc, sendDst
}

// ConnScalingTable renders the scaling document's memory column as the
// paper's Table-2 analogue: per-process receive-buffer memory (KB,
// max over ranks) versus cluster size, one column per scheme.
func ConnScalingTable(doc ScalingDoc) Table {
	t := Table{
		Title: fmt.Sprintf(
			"Connection scaling: per-process buffer memory HWM (KB), small-message storm (%d x %dB per peer, fanout %d)",
			doc.MsgsPerPeer, doc.MsgSizeB, doc.Fanout),
		Columns: []string{"ranks"},
		Note: fmt.Sprintf(
			"per-connection schemes pre-post %d/conn (dynamic cap %d); shared pool starts at %d, cap %d — memory bounded regardless of fan-in; rdma ring pins %d x %dB slots per conn direction; >= %d ranks: fat tree (radix %d, %d:1, %d rails); >= %d ranks: on-demand connections",
			doc.Prepost, doc.DynMax, doc.PoolPrepost, doc.PoolMax,
			doc.RingSlots, doc.SlotBytes,
			doc.FatTreeFrom, doc.LeafRadix, doc.Oversub, doc.Rails, doc.OnDemandFrom),
	}
	for _, s := range doc.Series {
		t.Columns = append(t.Columns, s.Scheme)
	}
	t.Columns = append(t.Columns, "shared RNR", "shared limit ev")
	var shared *ScalingSeries
	for i := range doc.Series {
		if doc.Series[i].Scheme == "shared" {
			shared = &doc.Series[i]
		}
	}
	for i, n := range doc.Ranks {
		row := []string{fmt.Sprint(n)}
		for _, s := range doc.Series {
			row = append(row, fmt.Sprintf("%.1f", float64(s.BufBytesHWM[i])/1024))
		}
		if shared != nil {
			row = append(row, fmt.Sprint(shared.RNRNaks[i]), fmt.Sprint(shared.LimitEvents[i]))
		} else {
			row = append(row, "-", "-")
		}
		t.AddRow(row...)
	}
	return t
}

package main

import (
	"fmt"
	"sort"

	"ibflow/internal/core"
	"ibflow/internal/ib"
	"ibflow/internal/mpi"
	"ibflow/internal/nas"
)

// sizes freezes how much work one rep of each workload does. The full
// sizes are what every comparison between commits uses; the quick sizes
// exist for the package's own test.
type sizes struct {
	PingpongRoundTrips int    `json:"pingpong_round_trips_per_scheme"`
	StreamRounds       int    `json:"stream_rounds_per_scheme"`
	StormRanks         int    `json:"storm_ranks"`
	StormMsgsPerPeer   int    `json:"storm_msgs_per_peer"`
	NASClass           string `json:"nas_class"`
	LadderDiv          int    `json:"ladder_length_divisor"`
}

var fullSizes = sizes{
	PingpongRoundTrips: 16000,
	StreamRounds:       1000,
	StormRanks:         1024,
	StormMsgsPerPeer:   2,
	NASClass:           "A",
	LadderDiv:          1,
}

var quickSizes = sizes{
	PingpongRoundTrips: 800,
	StreamRounds:       60,
	StormRanks:         64,
	StormMsgsPerPeer:   6,
	NASClass:           "W",
	LadderDiv:          20,
}

// workload is one of the benchmark's four jobs. cell(i) generates the
// inputs of the rep's i-th world from the seed and returns it, or nil
// after the last one.
type workload struct {
	name string
	cold bool // no warm-up rep, a fresh heap per world: a real run pays its heap growth every time
	cell func(sz sizes, seed uint64, i int) *cell
}

var workloads = []*workload{
	{
		// 2 ranks, blocking round trips of 4 B-16 KB under all five schemes: rank-main hand-offs do the work, flow control none.
		name: "pingpong",
		cell: pingpongCell,
	},
	{
		// 2 ranks, window of 64 x 4 B over 10 pre-posted buffers under all five schemes: backlog, credit messages, ring syncs and growth do the work.
		name: "stream",
		cell: streamCell,
	},
	{
		// 1024 ranks on a fat tree, on-demand connections, fan-out-24 storm of 256 B: per-step cost that grows with world size.
		name: "storm_1024",
		cold: true,
		cell: stormCell,
	},
	{
		// Seven NAS class A kernels x five schemes at pre-post 1: rendezvous, collectives and compute; a stack change should read no change.
		name: "nas_mix",
		cell: nasCell,
	},
}

// minReps is the least number of measured reps a run makes, whatever its
// time budget.
const minReps = 3

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// pairSchemes are the five schemes of the 2-rank workloads: pre-post 10,
// so the stream's window of 64 overruns the credits.
func pairSchemes() []core.Params {
	return []core.Params{
		core.Hardware(10),
		core.Static(10),
		core.Dynamic(10, 300),
		core.Shared(16, 96),
		core.RDMA(8, 1024),
	}
}

// --- pingpong ---------------------------------------------------------------

// ppSizes: three eager sizes and one rendezvous size (paper Fig. 2).
var ppSizes = [4]int{4, 256, 1024, 16384}

func pingpongCell(sz sizes, seed uint64, i int) *cell {
	schemes := pairSchemes()
	if i >= len(schemes) {
		return nil
	}
	r := rng(seed*0x100 + uint64(i))
	// A balanced, seed-shuffled size order: every size is used equally
	// often, so the total work does not depend on the seed.
	rts := sz.PingpongRoundTrips
	order := make([]uint8, rts)
	for k := range order {
		order[k] = uint8(k % len(ppSizes))
	}
	for k := rts - 1; k > 0; k-- {
		j := int(r.next() % uint64(k+1))
		order[k], order[j] = order[j], order[k]
	}
	var send, recv [2][len(ppSizes)][]byte
	for me := 0; me < 2; me++ {
		for si, n := range ppSizes {
			send[me][si] = make([]byte, n)
			r.fill(send[me][si])
			recv[me][si] = make([]byte, n)
		}
	}
	return &cell{
		label: schemes[i].Kind.String(),
		n:     2,
		opts:  mpi.DefaultOptions(schemes[i]),
		ops:   2 * rts,
		main: func(rk *rank) {
			me := int(rk.id)
			peer := 1 - me
			rk.sampleGoroutines()
			for k, si := range order {
				seq, tag := uint64(k), k&0x7fff
				sbuf, rbuf := send[me][si], recv[me][si]
				putStamp(sbuf, stamp(seed, me, seq))
				if me == 0 {
					rk.Send(peer, tag, sbuf)
				}
				st := rk.Recv(peer, tag, rbuf)
				rk.check(st, rbuf, peer, tag, seq, send[peer][si])
				if me == 1 {
					rk.Send(peer, tag, sbuf)
				}
			}
		},
	}
}

// --- stream -----------------------------------------------------------------

const (
	streamWindow = 64
	streamSize   = 4
	streamAckTag = 1 << 20
)

func streamCell(sz sizes, seed uint64, i int) *cell {
	schemes := pairSchemes()
	if i >= len(schemes) {
		return nil
	}
	rounds := sz.StreamRounds
	sendSlab := make([]byte, streamWindow*streamSize)
	recvSlab := make([]byte, streamWindow*streamSize)
	var acks [2][]byte
	acks[0], acks[1] = make([]byte, streamSize), make([]byte, streamSize)
	return &cell{
		label: schemes[i].Kind.String(),
		n:     2,
		opts:  mpi.DefaultOptions(schemes[i]),
		ops:   (streamWindow + 1) * rounds,
		main: func(rk *rank) {
			me := int(rk.id)
			rk.sampleGoroutines()
			reqs := make([]*mpi.Request, streamWindow)
			// A seed-derived tag base: the window's tags differ per
			// seed, the traffic does not.
			base := int(seed % 1000)
			for r := 0; r < rounds; r++ {
				seq0 := uint64(r) * (streamWindow + 1)
				if me == 0 {
					for k := 0; k < streamWindow; k++ {
						buf := sendSlab[k*streamSize : (k+1)*streamSize]
						putStamp(buf, stamp(seed, 0, seq0+uint64(k)))
						reqs[k] = rk.Isend(1, base+k, buf)
					}
					rk.Waitall(reqs)
					st := rk.Recv(1, streamAckTag, acks[0])
					rk.check(st, acks[0], 1, streamAckTag, seq0+streamWindow, nil)
				} else {
					for k := 0; k < streamWindow; k++ {
						reqs[k] = rk.Irecv(0, base+k, recvSlab[k*streamSize:(k+1)*streamSize])
					}
					rk.Waitall(reqs)
					for k := 0; k < streamWindow; k++ {
						rk.check(reqs[k].Status(), recvSlab[k*streamSize:(k+1)*streamSize],
							0, base+k, seq0+uint64(k), nil)
					}
					putStamp(acks[1], stamp(seed, 1, seq0+streamWindow))
					rk.Send(0, streamAckTag, acks[1])
				}
			}
		},
	}
}

// --- storm ------------------------------------------------------------------

const (
	stormFanout = 24
	stormSize   = 256
)

// fatTree is the large-cluster fabric of the repo's scaling benchmark: a
// two-level fat tree, radix 32, 2:1 oversubscribed, 2 rails.
func fatTree(cfg ib.Config) ib.Config {
	cfg.Topology = ib.TopoFatTree
	cfg.LeafRadix = 32
	cfg.Oversub = 2
	cfg.Rails = 2
	return cfg
}

// stormOptions adds on-demand connection establishment to that fabric.
func stormOptions(fc core.Params) mpi.Options {
	opts := mpi.DefaultOptions(fc)
	opts.IB = fatTree(opts.IB)
	opts.Chan.OnDemand = true
	return opts
}

// stormRotation picks the seed's shift of the peer offsets j*stride. Only
// shifts that keep every offset in 1..n-1 qualify, and among those only
// the ones under which no rank's send peers are also its receive peers,
// as in the unshifted pattern: such an overlap halves the connections a
// rank sets up and makes a different, much lighter workload. Worlds too
// small to avoid the overlap (the quick size) take any shift.
func stormRotation(n, k, stride int, seed uint64) int {
	var all, clean []int
	for rot := 0; rot+k*stride < n; rot++ {
		all = append(all, rot)
		overlap := false
		for s := 2; s <= 2*k && !overlap; s++ {
			overlap = (2*rot+s*stride)%n == 0
		}
		if !overlap {
			clean = append(clean, rot)
		}
	}
	if len(clean) == 0 {
		clean = all
	}
	return clean[seed%uint64(len(clean))]
}

// stormCell re-implements the strided fan-out storm of the repo's scaling
// benchmark: every rank exchanges msgs eager messages with fan-out peers
// at a fixed stride, receives pre-posted, peers posted in ascending order
// so low ranks absorb the opening incast. The seed rotates the peer set.
func stormCell(sz sizes, seed uint64, i int) *cell {
	schemes := []core.Params{core.Static(8), core.RDMA(8, 1024)}
	if i >= len(schemes) {
		return nil
	}
	n, msgs := sz.StormRanks, sz.StormMsgsPerPeer
	k := stormFanout
	if k > n-1 {
		k = n - 1
	}
	stride := (n - 1) / k
	rot := stormRotation(n, k, stride, seed)
	tmpl := make([]byte, stormSize)
	r := rng(seed*0x100 + uint64(i))
	r.fill(tmpl)
	per := k * msgs * stormSize
	sendSlab := make([]byte, n*per)
	recvSlab := make([]byte, n*per)
	for off := 0; off < len(sendSlab); off += stormSize {
		copy(sendSlab[off:], tmpl)
	}
	peers := make([]int, 2*n*k) // per rank: k sources, then k destinations
	reqs := make([]*mpi.Request, 2*n*k*msgs)
	for me := 0; me < n; me++ {
		src, dst := peers[2*me*k:(2*me+1)*k], peers[(2*me+1)*k:(2*me+2)*k]
		for j := 1; j <= k; j++ {
			d := rot + j*stride
			src[j-1] = ((me-d)%n + n) % n
			dst[j-1] = (me + d) % n
		}
		sort.Ints(src)
		sort.Ints(dst)
		for pi, d := range dst {
			for m := 0; m < msgs; m++ {
				putStamp(sendSlab[me*per+(pi*msgs+m)*stormSize:], stamp(seed, me, uint64(d*msgs+m)))
			}
		}
	}
	return &cell{
		label: schemes[i].Kind.String(),
		n:     n,
		opts:  stormOptions(schemes[i]),
		ops:   n * k * msgs,
		main: func(rk *rank) {
			me := int(rk.id)
			src, dst := peers[2*me*k:(2*me+1)*k], peers[(2*me+1)*k:(2*me+2)*k]
			send, recv := sendSlab[me*per:(me+1)*per], recvSlab[me*per:(me+1)*per]
			rq := reqs[2*me*k*msgs : 2*(me+1)*k*msgs]
			q := 0
			for pi, s := range src {
				for m := 0; m < msgs; m++ {
					off := (pi*msgs + m) * stormSize
					rq[q] = rk.Irecv(s, m, recv[off:off+stormSize])
					q++
				}
			}
			for pi, d := range dst {
				for m := 0; m < msgs; m++ {
					off := (pi*msgs + m) * stormSize
					rq[q] = rk.Isend(d, m, send[off:off+stormSize])
					q++
				}
			}
			rk.sampleGoroutines()
			rk.Waitall(rq)
			for pi, s := range src {
				for m := 0; m < msgs; m++ {
					off := (pi*msgs + m) * stormSize
					rk.check(rq[pi*msgs+m].Status(), recv[off:off+stormSize],
						s, m, uint64(me*msgs+m), tmpl)
				}
			}
		},
	}
}

// --- nas_mix ----------------------------------------------------------------

// nasSchemes is the Fig.-10 stress setting: one pre-posted buffer per
// connection where the scheme has such a thing.
func nasSchemes() []core.Params {
	return []core.Params{
		core.Hardware(1),
		core.Static(1),
		core.Dynamic(1, 300),
		core.Shared(16, 96),
		core.RDMA(8, 1024),
	}
}

// nasProcs is the paper's process count: 8, and 16 for BT and SP (two
// per node on the 8-node testbed).
func nasProcs(app string) int {
	if app == "BT" || app == "SP" {
		return 16
	}
	return 8
}

func nasWorld(app nas.App, class nas.Class, fc core.Params) *cell {
	n := nasProcs(app.Name)
	opts := mpi.DefaultOptions(fc)
	if n == 16 {
		opts.RanksPerNode = 2
	}
	return &cell{
		label: fmt.Sprintf("%s/%s", app.Name, fc.Kind),
		n:     n,
		opts:  opts,
		ops:   1,
		main: func(rk *rank) {
			rk.sampleGoroutines()
			err := rk.runNAS(app, class)
			// One op per kernel run: rank 0 attempts it, any rank
			// whose self-verification fails fails it (once).
			if rk.id == 0 {
				rk.cr.attempted++
			}
			if err != nil && rk.cr.failed == 0 {
				rk.cr.fail("rank %d: %v", rk.id, err)
			}
		},
	}
}

func nasCell(sz sizes, _ uint64, i int) *cell {
	apps, schemes := nas.Apps(), nasSchemes()
	if i >= len(apps)*len(schemes) {
		return nil
	}
	class, err := nas.ParseClass(sz.NASClass)
	if err != nil {
		panic(err)
	}
	return nasWorld(apps[i%len(apps)], class, schemes[i/len(apps)])
}

package bench

import (
	"fmt"

	"ibflow/internal/core"
	"ibflow/internal/mpi"
	"ibflow/internal/sim"
)

// AblationDemotion compares the two zero-credit policies of the
// user-level static scheme (DESIGN.md: demote-to-rendezvous vs pure
// backlog) on the stress case of Figure 6 plus the LU application.
func AblationDemotion(o Opts) Table {
	t := Table{
		Title:   "Ablation: zero-credit policy (user-level static, pre-post 10)",
		Columns: []string{"policy", "bw 4B w=100 nb (MB/s)", "bw 4B w=100 blk (MB/s)", "LU time (s)"},
		Note:    "demotion lets blocking sends ride the rendezvous handshake (the paper's explanation of Fig 5 vs 6)",
	}
	for _, pol := range []core.ZeroCreditPolicy{core.DemoteToRendezvous, core.PureBacklog} {
		fc := core.Static(10)
		fc.ZeroCredit = pol
		nb := BandwidthOpts(fc, 4, 100, o.bwReps(), false, o.Tune)
		blk := BandwidthOpts(fc, 4, 100, o.bwReps(), true, o.Tune)
		fcLU := core.Static(2)
		fcLU.ZeroCredit = pol
		res, err := RunNASOpts("LU", o.class(), 8, fcLU, o.Tune)
		if err != nil {
			panic(err)
		}
		t.AddRow(pol.String(), f1(nb), f1(blk), fmt.Sprintf("%.3f", res.Time.Seconds()))
	}
	return t
}

// AblationGrowth compares dynamic growth policies: how fast the scheme
// converges to the demand and how much buffer memory it ends up holding.
func AblationGrowth(o Opts) Table {
	t := Table{
		Title:   "Ablation: dynamic growth policy (start 1)",
		Columns: []string{"growth", "bw 4B w=100 nb (MB/s)", "LU max posted", "LU growth events", "LU time (s)"},
		Note:    "linear (the paper's choice) vs larger steps vs exponential",
	}
	type g struct {
		name string
		mut  func(*core.Params)
	}
	for _, gr := range []g{
		{"linear+2", func(p *core.Params) { p.Growth = core.GrowLinear; p.Increment = 2 }},
		{"linear+8", func(p *core.Params) { p.Growth = core.GrowLinear; p.Increment = 8 }},
		{"exponential", func(p *core.Params) { p.Growth = core.GrowExponential }},
	} {
		fc := core.Dynamic(1, dynMax)
		gr.mut(&fc)
		bw := BandwidthOpts(fc, 4, 100, o.bwReps(), false, o.Tune)
		res, err := RunNASOpts("LU", o.class(), 8, fc, o.Tune)
		if err != nil {
			panic(err)
		}
		t.AddRow(gr.name, f1(bw), fmt.Sprint(res.MaxPosted),
			fmt.Sprint(res.Stats.GrowthEvents), fmt.Sprintf("%.3f", res.Time.Seconds()))
	}
	return t
}

// AblationECMThreshold sweeps the explicit-credit-message threshold for
// LU, the paper's ECM-heavy application (Table 1 mentions performance
// improves for LU by raising the threshold beyond 5).
func AblationECMThreshold(o Opts) Table {
	t := Table{
		Title:   "Ablation: ECM threshold (user-level static, pre-post 100, LU)",
		Columns: []string{"threshold", "#ECM/conn", "ECM share", "LU time (s)"},
		Note:    "paper uses threshold 5 and notes LU improves with a larger value",
	}
	for _, th := range []int{1, 2, 5, 10, 32} {
		fc := core.Static(100)
		fc.ECMThreshold = th
		res, err := RunNASOpts("LU", o.class(), 8, fc, o.Tune)
		if err != nil {
			panic(err)
		}
		share := float64(res.Stats.ECMsSent) / float64(res.TotalMsgs) * 100
		t.AddRow(fmt.Sprint(th), f1(res.ECMPerConn), pct(share),
			fmt.Sprintf("%.3f", res.Time.Seconds()))
	}
	return t
}

// AblationRNRTimeout sweeps the HCA's RNR retry timer under the hardware
// scheme at pre-post 1, where the paper's Figure 10 shows LU and MG
// collapsing because of timeout-and-retransmit storms.
func AblationRNRTimeout(o Opts) Table {
	t := Table{
		Title:   "Ablation: RNR timeout (hardware scheme, pre-post 1, LU)",
		Columns: []string{"timeout (us)", "RNR NAKs", "retransmits", "LU time (s)"},
		Note:    "the hardware scheme's cliff is proportional to the retry timer",
	}
	for _, us := range []int{10, 40, 80, 320, 1280} {
		us := us
		res, err := RunNASOpts("LU", o.class(), 8, core.Hardware(1), composeTune(func(op *mpi.Options) {
			op.IB.RNRTimeout = sim.Time(us) * sim.Microsecond
		}, o.Tune))
		if err != nil {
			panic(err)
		}
		t.AddRow(fmt.Sprint(us), fmt.Sprint(res.Stats.RNRNaks),
			fmt.Sprint(res.Stats.Retransmits), fmt.Sprintf("%.3f", res.Time.Seconds()))
	}
	return t
}

// AblationEagerThreshold sweeps the pre-pinned buffer size (and with it
// the eager/rendezvous switch-over) — the paper fixes it at 2 KB.
func AblationEagerThreshold(o Opts) Table {
	t := Table{
		Title:   "Ablation: eager buffer size (user-level static, pre-post 10)",
		Columns: []string{"buf size", "lat 1KB (us)", "lat 4KB (us)", "IS time (s)"},
		Note:    "small buffers push payloads into rendezvous; the paper uses 2KB",
	}
	for _, bs := range []int{256, 512, 1024, 2048, 4096, 8192} {
		bs := bs
		tune := composeTune(func(op *mpi.Options) { op.Chan.BufSize = bs }, o.Tune)
		lat1 := LatencyOpts(core.Static(10), 1024, o.latIters(), tune)
		lat4 := LatencyOpts(core.Static(10), 4096, o.latIters(), tune)
		res, err := RunNASOpts("IS", o.class(), 8, core.Static(10), tune)
		if err != nil {
			panic(err)
		}
		t.AddRow(fmt.Sprint(bs), f2(lat1), f2(lat4), fmt.Sprintf("%.3f", res.Time.Seconds()))
	}
	return t
}

// LatencyOpts is Latency with an options hook.
func LatencyOpts(fc core.Params, size, iters int, tune func(*mpi.Options)) float64 {
	opts := mpi.DefaultOptions(fc)
	if tune != nil {
		tune(&opts)
	}
	w := mpi.NewWorld(2, opts)
	err := w.Run(func(c *mpi.Comm) {
		buf := make([]byte, size)
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
	if err != nil {
		panic(err)
	}
	return w.Time().Micros() / float64(2*iters)
}

// AblationShrink exercises the paper's future-work credit decrease: a
// two-phase workload (bursty, then quiet ping-pong) under the dynamic
// scheme with and without shrinking, reporting the buffer memory held at
// the end.
func AblationShrink(o Opts) Table {
	t := Table{
		Title:   "Ablation: dynamic shrink (paper future work)",
		Columns: []string{"shrink", "max posted", "final posted sum", "time (ms)"},
		Note:    "shrinking returns buffer memory after a bursty phase ends",
	}
	for _, enable := range []bool{false, true} {
		fc := core.Dynamic(1, dynMax)
		if enable {
			fc.ShrinkIdle = 2 * sim.Millisecond
			fc.ShrinkFloor = 2
		}
		opts := mpi.DefaultOptions(fc)
		o.tune(&opts)
		w := mpi.NewWorld(2, opts)
		err := w.Run(func(c *mpi.Comm) {
			// Phase 1: one-way burst creating buffer pressure.
			const burst = 60
			if c.Rank() == 0 {
				var reqs []*mpi.Request
				for i := 0; i < burst; i++ {
					reqs = append(reqs, c.Isend(1, 1, make([]byte, 512)))
				}
				c.Waitall(reqs...)
			} else {
				c.Compute(300 * sim.Microsecond)
				buf := make([]byte, 512)
				for i := 0; i < burst; i++ {
					c.Recv(0, 1, buf)
				}
			}
			// Phase 2: long quiet ping-pong; with shrink enabled the
			// grown buffers decay back toward the floor.
			buf := make([]byte, 64)
			for i := 0; i < 40; i++ {
				if c.Rank() == 0 {
					c.Send(1, 2, buf)
					c.Recv(1, 2, buf)
				} else {
					c.Recv(0, 2, buf)
					c.Send(0, 2, buf)
				}
				c.Compute(200 * sim.Microsecond)
			}
		})
		if err != nil {
			panic(err)
		}
		st := w.Stats()
		t.AddRow(fmt.Sprint(enable), fmt.Sprint(st.MaxPosted), fmt.Sprint(st.SumPosted),
			fmt.Sprintf("%.2f", w.Time().Seconds()*1e3))
	}
	return t
}

// ScalingMeasured actually simulates growing clusters running a 3-D halo
// exchange under the dynamic scheme with on-demand connections, measuring
// (rather than projecting) connection counts and buffer memory — the
// paper's scalability argument, executed.
func ScalingMeasured(o Opts) Table {
	sizes := []int{8, 32, 64, 128}
	steps := 12
	if o.Quick {
		sizes = []int{8, 32, 64}
		steps = 6
	}
	t := Table{
		Title:   "Scaling (measured): 3-D halo exchange, dynamic scheme + on-demand connections",
		Columns: []string{"ranks", "conn ends/proc", "buffer KB/proc", "max posted", "time (ms)"},
		Note:    "each rank talks to <= 6 neighbours: connections and buffers stay O(1) per process",
	}
	for _, n := range sizes {
		fc := core.Dynamic(1, dynMax)
		opts := mpi.DefaultOptions(fc)
		opts.Chan.OnDemand = true
		opts.TimeLimit = timeLimit
		o.tune(&opts)
		w := mpi.NewWorld(n, opts)
		if err := w.Run(func(c *mpi.Comm) {
			// 1-D ring halo with distance-1 and distance-2 neighbours
			// (a stand-in for a 3-D torus's 6 neighbours).
			me, sz := c.Rank(), c.Size()
			row := make([]byte, 1024)
			in := make([]byte, 1024)
			for s := 0; s < steps; s++ {
				for _, d := range []int{1, 2, 3} {
					right := (me + d) % sz
					left := (me - d + sz) % sz
					c.Sendrecv(right, d, row, left, d, in)
					c.Sendrecv(left, 10+d, row, right, 10+d, in)
				}
			}
		}); err != nil {
			panic(fmt.Sprintf("bench: scaling run failed at %d ranks: %v", n, err))
		}
		st := w.Stats()
		t.AddRow(fmt.Sprint(n),
			fmt.Sprintf("%.1f", float64(st.Conns)/float64(n)),
			fmt.Sprintf("%.0f", float64(st.BufBytesInUse)/float64(n)/1024),
			fmt.Sprint(st.MaxPosted),
			fmt.Sprintf("%.2f", w.Time().Seconds()*1e3))
	}
	return t
}

// ScalingTable projects per-process buffer memory for large clusters from
// the measured buffer demand (the paper's 1,000-10,000 node argument),
// and measures on-demand connection setup on a ring workload.
func ScalingTable(o Opts) Table {
	// Measure dynamic demand on LU (the worst case) once.
	res, err := RunNASOpts("LU", o.class(), 8, core.Dynamic(1, dynMax), o.Tune)
	if err != nil {
		panic(err)
	}
	perConnDynamic := res.Stats.SumPosted / res.Stats.Conns
	if perConnDynamic < 1 {
		perConnDynamic = 1
	}
	t := Table{
		Title:   "Scaling: projected pre-posted buffer memory per process (2KB buffers)",
		Columns: []string{"nodes", "static pre-post 100", "dynamic (measured demand)", "dynamic + on-demand (10% peers)"},
		Note: fmt.Sprintf("dynamic demand measured on LU: avg %d buffers/connection (max %d)",
			perConnDynamic, res.MaxPosted),
	}
	mb := func(conns, per int) string {
		return fmt.Sprintf("%.1f MB", float64(conns*per*2048)/1e6)
	}
	for _, nodes := range []int{8, 64, 1024, 10240} {
		conns := nodes - 1
		t.AddRow(fmt.Sprint(nodes),
			mb(conns, 100),
			mb(conns, perConnDynamic),
			mb(conns/10+1, perConnDynamic))
	}
	return t
}

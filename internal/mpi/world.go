// Package mpi implements the MPI point-to-point layer of the paper's
// implementation: rank setup over the channel device, (source, tag)
// matching with wildcards and MPI's non-overtaking order, blocking and
// non-blocking send/receive, and request completion. Collective operations
// live in internal/coll.
package mpi

import (
	"fmt"

	"ibflow/internal/chdev"
	"ibflow/internal/core"
	"ibflow/internal/fault"
	"ibflow/internal/ib"
	"ibflow/internal/metrics"
	"ibflow/internal/sim"
	"ibflow/internal/store"
)

// Options configures a simulated MPI job.
type Options struct {
	// IB is the fabric model configuration.
	IB ib.Config
	// Chan is the channel device (host software) configuration.
	Chan chdev.Config
	// FC selects and parameterizes the flow control scheme.
	FC core.Params
	// RanksPerNode places that many consecutive ranks on each physical
	// node, sharing its HCA (the paper runs BT/SP as 16 processes on 8
	// dual-CPU nodes). Intra-node traffic uses adapter loopback: it
	// skips the switch but contends for the shared ports. 0 means 1.
	RanksPerNode int
	// TimeLimit aborts the simulation at this virtual time (0 = none).
	TimeLimit sim.Time
	// Faults, when non-nil, injects the plan's fabric and ECM faults
	// into the whole job (it is wired into both IB.Faults and
	// Chan.Faults by NewWorld).
	Faults *fault.Plan
	// Settle extends finalize with termination detection: a finished
	// rank leaves its device's progress engine running detached, so late
	// credits, FINs and re-issued streams are still processed, and Run
	// returns when the event queue has drained — every device quiescent,
	// every completion polled, every owed credit flushed. Audit requires
	// a settled job; perf runs leave this off so their makespans stay
	// comparable.
	Settle bool
	// Metrics, when non-nil, attaches the deterministic metrics registry
	// to the whole job: NewWorld wires it into Chan.Metrics and
	// IB.Metrics, and Run samples it on the sim clock every 20 us
	// (metricsInterval). Instrumentation never changes what the
	// simulation computes — an instrumented run has the same makespan and
	// stats as an uninstrumented one. A registry belongs to exactly one
	// world.
	Metrics *metrics.Registry
}

// DefaultOptions returns the calibrated testbed configuration under the
// given flow control scheme.
func DefaultOptions(fc core.Params) Options {
	return Options{
		IB:   ib.DefaultConfig(),
		Chan: chdev.DefaultConfig(),
		FC:   fc,
	}
}

// World is a simulated MPI job: n ranks on n nodes of one fabric.
type World struct {
	eng    *sim.Engine
	fabric *ib.Fabric
	ranks  []*Rank
	devs   []*chdev.Device
	opts   Options
	reqs   store.Pool[Request] // every rank's request boxes (see Request)

	// Job-level histograms, non-nil only when Options.Metrics is set
	// (their methods are nil-safe).
	settleHist  *metrics.Histogram
	barrierHist *metrics.Histogram
}

// NewWorld builds a job of n ranks.
func NewWorld(n int, opts Options) *World {
	if n < 1 {
		panic("mpi: world needs at least one rank")
	}
	rpn := opts.RanksPerNode
	if rpn < 1 {
		rpn = 1
	}
	nodes := (n + rpn - 1) / rpn
	if opts.Faults != nil {
		opts.IB.Faults = opts.Faults
		opts.Chan.Faults = opts.Faults
	}
	if opts.Metrics != nil {
		opts.IB.Metrics = opts.Metrics
		opts.Chan.Metrics = opts.Metrics
	}
	eng := sim.NewEngine()
	w := &World{
		eng:    eng,
		fabric: ib.NewFabric(eng, opts.IB, nodes),
		opts:   opts,
	}
	devs := make([]*chdev.Device, n)
	for i := 0; i < n; i++ {
		r := newRank(w, i)
		r.dev = chdev.New(eng, w.fabric.HCA(i/rpn), opts.Chan, opts.FC, i, n, r)
		w.ranks = append(w.ranks, r)
		devs[i] = r.dev
	}
	chdev.Wire(devs)
	w.devs = devs
	w.registerMetrics()
	return w
}

// Engine exposes the simulation engine (for tests and tools).
func (w *World) Engine() *sim.Engine { return w.eng }

// Size returns the number of ranks.
func (w *World) Size() int { return len(w.ranks) }

// Run executes main once per rank (like mpirun) and drives the simulation
// to completion. It returns the underlying simulation error, if any — a
// *sim.DeadlockError when ranks blocked forever, or ErrTimeLimit when the
// configured limit was hit before the job finished.
func (w *World) Run(main func(c *Comm)) error {
	sampler := w.startSampler()
	running := len(w.ranks)
	for _, r := range w.ranks {
		r := r
		w.eng.Go(fmt.Sprintf("rank%d", r.idx), func(p *sim.Proc) {
			r.proc = p
			main(&Comm{r: r})
			// Finalize: flush backlogged sends and in-flight
			// rendezvous before the rank exits, as MPI_Finalize
			// does.
			r.dev.WaitProgress(p, r.dev.Quiescent)
			if w.opts.Settle {
				// The rank is done but its device is not: peers may still
				// owe it credits, FINs or a re-issued stream, which an
				// early exit would leave for the audit to misread as
				// leaks. Detached, the device keeps draining its own CQ,
				// and the engine's empty queue is the termination
				// detector: nothing is in flight once no event is.
				r.detached = p.Now()
				r.dev.Detach()
			}
			// The last rank out stops the sampler: its armed tick is
			// cancelled before it could fire past the final real event,
			// so instrumentation never stretches the makespan.
			running--
			if running == 0 {
				sampler.Stop()
			}
		})
	}
	limit := w.opts.TimeLimit
	if limit == 0 {
		limit = sim.MaxTime
	}
	// The job is over when Run returns, whatever the outcome — a
	// deadlock, the time limit, a panic in a rank main passing through;
	// closing the engine unwinds every rank still parked. Stop is
	// idempotent: the deferred call only
	// matters on error paths (deadlock, time limit), where it grabs a
	// final sample of the aborted state.
	defer w.eng.Close()
	defer sampler.Stop()
	if err := w.eng.Run(limit); err != nil {
		return err
	}
	if w.eng.Pending() > 0 {
		return fmt.Errorf("mpi: time limit %v exceeded", limit)
	}
	if w.opts.Settle {
		// The queue drained: every rank's settle time is now known, and
		// one more sample ends the series with the settled state.
		for _, r := range w.ranks {
			w.settleHist.ObserveTime(w.eng.Now() - r.detached)
		}
		w.opts.Metrics.Sample(w.eng.Now())
	}
	return nil
}

// Audit runs the chdev end-of-run conservation audit over all devices:
// zero credit leak, message conservation, nothing stranded. Meaningful
// after Run with Settle enabled.
func (w *World) Audit() error { return chdev.Audit(w.devs) }

// Time returns the virtual time consumed so far (after Run: the job's
// makespan).
func (w *World) Time() sim.Time { return w.eng.Now() }

// RankStats returns the channel device statistics of rank i.
func (w *World) RankStats(i int) chdev.Stats { return w.ranks[i].dev.Stats() }

// EndpointStats aggregates endpoint-set counters across all ranks:
// selection counts and live endpoints sum, the occupancy high-water
// mark is the worst endpoint anywhere in the job.
func (w *World) EndpointStats() chdev.EPStats {
	var es chdev.EPStats
	for _, r := range w.ranks {
		rs := r.dev.EndpointStats()
		es.Endpoints = rs.Endpoints
		es.Active += rs.Active
		if rs.OccupancyHWM > es.OccupancyHWM {
			es.OccupancyHWM = rs.OccupancyHWM
		}
		es.StickySels += rs.StickySels
	}
	return es
}

// Stats aggregates device statistics across all ranks.
func (w *World) Stats() chdev.Stats {
	var s chdev.Stats
	s.Rank = -1
	for _, r := range w.ranks {
		rs := r.dev.Stats()
		s.Conns += rs.Conns
		s.MsgsSent += rs.MsgsSent
		s.EagerSent += rs.EagerSent
		s.Demoted += rs.Demoted
		s.Backlogged += rs.Backlogged
		s.ECMsSent += rs.ECMsSent
		s.GrowthEvents += rs.GrowthEvents
		if rs.MaxPosted > s.MaxPosted {
			s.MaxPosted = rs.MaxPosted
		}
		s.SumPosted += rs.SumPosted
		s.RNRNaks += rs.RNRNaks
		s.Retransmits += rs.Retransmits
		s.WastedBytes += rs.WastedBytes
		s.RegHits += rs.RegHits
		s.RegMisses += rs.RegMisses
		s.BufBytesInUse += rs.BufBytesInUse
		if rs.BufBytesHWM > s.BufBytesHWM {
			s.BufBytesHWM = rs.BufBytesHWM
		}
		s.LimitEvents += rs.LimitEvents
		s.RNRExhausted += rs.RNRExhausted
		s.Reissues += rs.Reissues
		s.ECMsDropped += rs.ECMsDropped
		s.ECMsDuplicated += rs.ECMsDuplicated
		s.RingSyncs += rs.RingSyncs
		if rs.RingOccupancyHWM > s.RingOccupancyHWM {
			s.RingOccupancyHWM = rs.RingOccupancyHWM
		}
		s.RndvReadBytes += rs.RndvReadBytes
	}
	return s
}

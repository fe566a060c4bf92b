// Package fault implements seeded, deterministic fault injection for the
// simulated InfiniBand fabric and the MPI channel device.
//
// A Plan is built from a sim.NewRand seed — never wall clock — bound by
// the fabric it is attached to (ib.Config.Faults, Plan.Bind), and perturbs
// a run through narrow hooks the transport and device consult at
// well-defined points of the (serialized) event loop:
//
//   - per-message link-latency jitter and transient link outages
//     (consulted by the fabric's delivery path),
//   - forced Receiver-Not-Ready verdicts that exercise the RNR
//     retry/backoff machinery up to budget exhaustion (ib),
//   - delayed acknowledgements, i.e. late completion events (ib),
//   - dropped and duplicated explicit credit messages (consulted by
//     the channel device when an ECM is about to post).
//
// Because the simulation core serializes all processes and events, the
// Plan's generator is drawn in a deterministic order: the same seed and
// configuration reproduce bit-identical runs, which is what lets the
// torture harness assert invariants across a seed sweep and demand
// identical stats and traces on rerun.
package fault

import (
	"sort"

	"ibflow/internal/sim"
	"ibflow/internal/trace"
)

// Config parameterizes a fault plan. The zero value injects nothing. A
// probability is a whole percent in [0, 100]; a world spec's faults= key
// prints each field (mpi.Spec).
type Config struct {
	// Seed feeds the deterministic generator (sim.NewRand). Zero is
	// remapped by sim.NewRand, so every seed, including 0, is valid.
	Seed uint64

	// JitterPct is the per-message probability of extra path latency,
	// drawn uniformly from (0, jitterMax].
	JitterPct int

	// OutageCount transient link outages on the bound fabric's nodes are
	// scheduled over [0, horizon): a node's links stall and traffic touching
	// it is delayed until the outage ends. Durations draw from (0, outageMax].
	OutageCount int

	// ECMDropPct is the probability an explicit credit message fails
	// before reaching the wire (the device keeps the credits owed and
	// re-issues later). ECMDupPct is the probability a successfully sent
	// ECM is followed by a spurious zero-credit duplicate.
	ECMDropPct, ECMDupPct int

	// RNRForcePct is the probability a delivery is NAKed as
	// receiver-not-ready even though a buffer is posted (models HCA
	// backpressure); it drives the sender's retry budget toward
	// exhaustion when the budget is finite.
	RNRForcePct int

	// AckDelayPct delays a WQE's acknowledgement — a late completion
	// event — by a uniform draw from (0, ackDelayMax].
	AckDelayPct int
}

// The bounds of a plan's draws.
const (
	jitterMax   = 30 * sim.Microsecond
	outageMax   = 200 * sim.Microsecond
	horizon     = 5 * sim.Millisecond
	ackDelayMax = 20 * sim.Microsecond
)

// outage is one scheduled link stall: node's ports are down in [Start, End).
type outage struct {
	Node       int
	Start, End sim.Time
}

// Stats counts the faults a plan actually injected. All counters are
// deterministic for a given seed and event order.
type Stats struct {
	Jitters      uint64
	JitterTime   sim.Time
	OutageDelays uint64
	OutageTime   sim.Time
	ForcedRNRs   uint64
	AckDelays    uint64
	AckDelayTime sim.Time
	ECMDrops     uint64
	ECMDups      uint64
}

// Plan is a deterministic fault schedule. It implements ib.FaultInjector,
// and its DropECM and DuplicateECM are the channel device's ECM faults:
// attach it once, as ib.Config.Faults, and the fabric binds it and every
// device on it consults it.
type Plan struct {
	cfg      Config
	rng      *sim.Rand // made by Bind: a generator serves one run
	tracer   *trace.Buffer
	outages  []outage
	lastExit map[[2]int]sim.Time // last wire-entry time per directed pair
	stats    Stats
}

// New builds a plan from cfg. Its hooks need it bound (Bind).
func New(cfg Config) *Plan {
	return &Plan{cfg: cfg, lastExit: map[[2]int]sim.Time{}}
}

// Bind implements ib.FaultInjector: it draws the outage windows over the
// fabric's nodes before any traffic, a pure function of the seed, and
// traces them and every later fault delay in tr. A second Bind panics.
func (p *Plan) Bind(nodes int, tr *trace.Buffer) {
	if p.rng != nil {
		panic("fault: plan is already bound to a fabric")
	}
	p.rng, p.tracer = sim.NewRand(p.cfg.Seed), tr
	for i := 0; i < p.cfg.OutageCount; i++ {
		node := p.rng.Intn(nodes)
		start := sim.Time(p.rng.Intn(int(horizon)))
		dur := p.drawDuration(outageMax)
		p.outages = append(p.outages, outage{Node: node, Start: start, End: start + dur})
	}
	sort.Slice(p.outages, func(i, j int) bool {
		if p.outages[i].Start != p.outages[j].Start {
			return p.outages[i].Start < p.outages[j].Start
		}
		return p.outages[i].Node < p.outages[j].Node
	})
	if tr != nil {
		for _, o := range p.outages {
			tr.Add(trace.Event{T: o.Start, Rank: o.Node, Peer: -1,
				Kind: trace.LinkOutage, Arg: int64(o.End - o.Start)})
		}
	}
}

// drawDuration returns a uniform draw from (0, max].
func (p *Plan) drawDuration(max sim.Time) sim.Time {
	return sim.Time(p.rng.Intn(int(max))) + 1
}

// draw reports whether an event of probability pct percent happens. A
// zero pct draws nothing, so a hook that is off leaves the generator alone.
func (p *Plan) draw(pct int) bool {
	return pct > 0 && p.rng.Float64() < float64(pct)/100
}

// Stats returns a copy of the injection counters.
func (p *Plan) Stats() Stats { return p.stats }

// outageDelay returns how long a message touching src or dst at time t
// must wait for every covering outage window to pass.
func (p *Plan) outageDelay(t sim.Time, src, dst int) sim.Time {
	delay := sim.Time(0)
	for changed := true; changed; {
		changed = false
		for _, o := range p.outages {
			if o.Node != src && o.Node != dst {
				continue
			}
			if at := t + delay; at >= o.Start && at < o.End {
				delay = o.End - t
				changed = true
			}
		}
	}
	return delay
}

// MessageDelay implements ib.FaultInjector: extra path latency for one
// message of n wire bytes from src to dst, combining outage stalls and
// random jitter. now is the message's undelayed wire-entry time. A QP's
// one path keeps its messages in order, but two jitter draws could swap
// them, so delayed times stay strictly monotonic per directed pair: a
// reordered arrival would be dropped by the receiver's sequence check with
// no NAK to trigger retransmission, turning one jittered message into a hang.
func (p *Plan) MessageDelay(now sim.Time, src, dst, n int) sim.Time {
	var delay sim.Time
	if d := p.outageDelay(now, src, dst); d > 0 {
		p.stats.OutageDelays++
		p.stats.OutageTime += d
		delay += d
	}
	if p.draw(p.cfg.JitterPct) {
		j := p.drawDuration(jitterMax)
		p.stats.Jitters++
		p.stats.JitterTime += j
		delay += j
	}
	pair := [2]int{src, dst}
	if last, ok := p.lastExit[pair]; ok && now+delay <= last {
		delay = last + 1 - now // keep FIFO behind an earlier, slower message
	}
	p.lastExit[pair] = now + delay
	if delay > 0 && p.tracer != nil {
		p.tracer.Add(trace.Event{T: now, Rank: src, Peer: dst,
			Kind: trace.FaultDelay, Arg: int64(delay)})
	}
	return delay
}

// ForceRNR implements ib.FaultInjector: pretend the receiver at node is
// not ready even though a buffer is posted.
func (p *Plan) ForceRNR(now sim.Time, node int) bool {
	if !p.draw(p.cfg.RNRForcePct) {
		return false
	}
	p.stats.ForcedRNRs++
	return true
}

// AckDelay implements ib.FaultInjector: extra latency before a WQE's
// acknowledgement retires it (a delayed completion event).
func (p *Plan) AckDelay(now sim.Time) sim.Time {
	if !p.draw(p.cfg.AckDelayPct) {
		return 0
	}
	d := p.drawDuration(ackDelayMax)
	p.stats.AckDelays++
	p.stats.AckDelayTime += d
	return d
}

// DropECM reports whether the explicit credit message from
// rank to peer fails before the wire; the device keeps the credits and
// re-issues. The plan's count of drops is the only one (Stats.ECMDrops).
func (p *Plan) DropECM(now sim.Time, rank, peer int) bool {
	if !p.draw(p.cfg.ECMDropPct) {
		return false
	}
	p.stats.ECMDrops++
	return true
}

// DuplicateECM reports whether a sent ECM is followed by a spurious
// zero-credit duplicate (exercises exactly-once credit application at the
// receiver). Stats.ECMDups is the only count of them.
func (p *Plan) DuplicateECM(now sim.Time, rank, peer int) bool {
	if !p.draw(p.cfg.ECMDupPct) {
		return false
	}
	p.stats.ECMDups++
	return true
}

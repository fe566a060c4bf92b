package mpi

import (
	"bytes"
	"fmt"
	"testing"

	"ibflow/internal/chdev"
	"ibflow/internal/core"
	"ibflow/internal/fault"
	"ibflow/internal/metrics"
	"ibflow/internal/runner"
	"ibflow/internal/sim"
	"ibflow/internal/trace"
)

// tortureMsg is one entry of a deterministic global traffic schedule.
type tortureMsg struct {
	src, dst, tag, size int
	seed                byte
}

// tortureSchedule builds a reproducible mixed workload: random sizes
// spanning eager and rendezvous, random tags, every pair talking.
func tortureSchedule(n, count int, seed uint64) []tortureMsg {
	rng := sim.NewRand(seed)
	msgs := make([]tortureMsg, count)
	sizes := []int{0, 1, 7, 64, 512, 1999, 2000, 2048, 4096, 30000, 70000}
	for i := range msgs {
		src := rng.Intn(n)
		dst := rng.Intn(n - 1)
		if dst >= src {
			dst++
		}
		msgs[i] = tortureMsg{
			src:  src,
			dst:  dst,
			tag:  rng.Intn(5),
			size: sizes[rng.Intn(len(sizes))],
			seed: byte(rng.Intn(251) + 1),
		}
	}
	return msgs
}

func fillPattern(buf []byte, seed byte) {
	for i := range buf {
		buf[i] = seed + byte(i*7)
	}
}

func checkPattern(buf []byte, seed byte) bool {
	for i := range buf {
		if buf[i] != seed+byte(i*7) {
			return false
		}
	}
	return true
}

// tortureSchemes are the five schemes every torture row runs, at
// pre-posts small enough that every credit path fires.
var tortureSchemes = []core.Params{
	core.Hardware(2),
	core.Static(2),
	core.Dynamic(1, 64),
	core.Shared(4, 64),
	core.RDMA(4, 1024),
}

// multiRail is the torture world on a 2-rail fat tree of two-port leaves:
// every QP between leaves crosses the trunks, and mixed sizes on one QP
// must arrive in order although its port has a second rail (a
// connection's path is fixed at Connect). Each row sets the scheme.
var multiRail = Spec{Ranks: 4, LeafRadix: 2, Oversub: 1, Rails: 2}

// tortureRank is every torture world's rank main: the rank posts a
// receive for each of its inbound messages in schedule order (per source,
// order must hold), fires its sends in schedule order, waits for all of
// its receives and verifies every payload.
func tortureRank(c *Comm, sched []tortureMsg) {
	me := c.Rank()
	var reqs []*Request
	var bufs [][]byte
	var expect []tortureMsg
	for _, m := range sched {
		if m.dst == me {
			buf := make([]byte, m.size)
			reqs = append(reqs, c.Irecv(m.src, m.tag, buf))
			bufs = append(bufs, buf)
			expect = append(expect, m)
		}
	}
	for _, m := range sched {
		if m.src == me {
			data := make([]byte, m.size)
			fillPattern(data, m.seed)
			// Sends issue from a logical worker thread keyed by tag:
			// inert on a single connection, and under an endpoint set
			// the sticky policy then pins each (src, dst, tag) stream
			// to one endpoint, preserving the FIFO that same-tag
			// matching depends on.
			c.Wait(c.Thread(m.tag).Isend(m.dst, m.tag, data))
		}
	}
	c.Waitall(reqs...)
	for i, m := range expect {
		if !checkPattern(bufs[i], m.seed) {
			c.Abort(fmt.Sprintf("payload %d from %d (tag %d, %dB) corrupted",
				i, m.src, m.tag, m.size))
		}
	}
}

// runTorture executes the schedule in the world s describes
// (tortureRank). Debug mode re-checks every credit invariant after each
// progress pass, so a leak panics the run.
func runTorture(t *testing.T, s Spec, count int, seed uint64) {
	t.Helper()
	sched := tortureSchedule(s.Ranks, count, seed)
	opts := s.Options()
	opts.Chan.Debug = true
	w := NewWorld(s.Ranks, opts)
	if err := w.Run(func(c *Comm) { tortureRank(c, sched) }); err != nil {
		t.Fatalf("torture %v, %d msgs: %v", s, count, err)
	}
}

// TestTortureMatrix runs the mixed workload across every scheme (both
// eager channels), SMP placement, on-demand connections, endpoint sets
// and the multi-rail fat tree, at tiny pre-posts. Any mis-ordered match,
// credit leak or slot corruption fails payload verification, an
// invariant check, or deadlocks. A row is named for its scheme and
// variant, and its one subtest for its spec.
func TestTortureMatrix(t *testing.T) {
	variants := []struct {
		name string
		spec Spec // each row sets the scheme
	}{
		{"sendrecv", Spec{Ranks: 4}},
		{"smp", Spec{Ranks: 4, PerNode: 2}},
		{"ondemand", Spec{Ranks: 4, OnDemand: true}},
		// Two endpoints per rank pair; the tag-keyed worker threads in
		// runTorture multiplex the schedule over both.
		{"endpoints", Spec{Ranks: 4, Endpoints: 2}},
		{"multirail", multiRail},
	}
	for _, fc := range tortureSchemes {
		for _, v := range variants {
			s := v.spec
			s.Scheme = fc
			t.Run(fc.Kind.String()+"-"+v.name, func(t *testing.T) {
				t.Run(s.String(), func(t *testing.T) { runTorture(t, s, 120, 0xfeed) })
			})
		}
	}
}

// TestTortureWaitOrderIndependence posts receives before or after the
// traffic arrives (receiver compute delays) — matching must not care.
func TestTortureDelayedReceivers(t *testing.T) {
	opts := DefaultOptions(core.Dynamic(1, 64))
	sched := tortureSchedule(4, 80, 0xbeef)
	w := NewWorld(4, opts)
	err := w.Run(func(c *Comm) {
		// Odd ranks sit out a long compute before receiving anything,
		// forcing deep unexpected queues at their devices.
		if c.Rank()%2 == 1 {
			c.Compute(400 * sim.Microsecond)
		}
		tortureRank(c, sched)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// faultMix is the faults= key of every fault torture row after its seed:
// jitter, two outages, ECM drops and duplicates, forced RNRs and delayed
// acknowledgements.
const faultMix = "jitter(20)+outages(2)+ecmdrop(30)+ecmdup(20)+rnr(25)+ack(10)"

// faultRow is world's fault torture row at seed, built from its text, so
// a failing row prints one line that ParseSpec replays. Seed 0 is the
// default and prints no term.
func faultRow(world Spec, seed uint64) Spec {
	text := fmt.Sprintf("%v faults=%s", world, faultMix)
	if seed != 0 {
		text = fmt.Sprintf("%v faults=seed(%d)+%s", world, seed, faultMix)
	}
	s, err := ParseSpec(text)
	if err != nil {
		panic(err)
	}
	return s
}

// faultTortureOpts builds the job configuration of the faulty world s
// describes with the harness's settings: a finite RNR budget on the
// fabric's own RNR timer and full invariant checking.
func faultTortureOpts(s Spec, tracer *trace.Buffer) Options {
	opts := s.Options()
	opts.IB.RNRRetryCount = 3
	opts.IB.Tracer = tracer
	opts.Chan.Debug = true
	// Instrumentation rides along under the full fault mix: the metric
	// dump is part of the bit-identical rerun contract below.
	opts.IB.Metrics = metrics.New()
	// Backstop: a liveness bug surfaces as a crisp error, not a hang.
	opts.TimeLimit = 2 * sim.Second
	return opts
}

// faultRunResult snapshots everything a rerun must reproduce bit-identically.
type faultRunResult struct {
	makespan    sim.Time
	firstExit   sim.Time // when the first rank left finalize (not part of the digest)
	stats       chdev.Stats
	fstats      fault.Stats
	events      []trace.Event
	metricsJSON []byte
}

// faultTorture executes one seeded faulty run in the world s describes,
// its schedule drawn from the fault seed, and checks the per-run
// invariants: no deadlock, every payload intact and FIFO-matched, and —
// when the run settles — the end-of-run audit (zero credit leak, message
// conservation, nothing stranded; an unsettled job may still have
// credits in flight). It returns the run's
// observable state for rerun comparison. It builds a private world and
// touches nothing shared, so distinct cells may run on parallel workers
// (see runner.Map).
func faultTorture(s Spec, settle bool) (faultRunResult, error) {
	const count = 40
	tracer := trace.NewBuffer(1 << 14)
	opts := faultTortureOpts(s, tracer)
	opts.Settle = settle
	sched := tortureSchedule(s.Ranks, count, s.Faults.Seed^0xf001)
	w := NewWorld(s.Ranks, opts)
	firstExit := sim.MaxTime
	err := w.Run(func(c *Comm) {
		tortureRank(c, sched)
		// Run finalize's wait here, where its end can be observed; the
		// one World.Run issues after main then returns without a pass.
		c.r.dev.WaitProgress(&c.r.proc, c.r.dev.Quiescent)
		firstExit = min(firstExit, c.Time())
	})
	if err != nil {
		return faultRunResult{}, fmt.Errorf("%v: %w", s, err)
	}
	if settle {
		if err := w.Audit(); err != nil {
			return faultRunResult{}, fmt.Errorf("%v: %w", s, err)
		}
	}
	var mbuf bytes.Buffer
	if err := w.opts.IB.Metrics.WriteJSON(&mbuf); err != nil {
		return faultRunResult{}, fmt.Errorf("%v: metrics dump: %w", s, err)
	}
	return faultRunResult{
		makespan:    w.Time(),
		firstExit:   firstExit,
		stats:       w.Stats(),
		fstats:      opts.IB.Faults.(*fault.Plan).Stats(),
		events:      tracer.Events(),
		metricsJSON: mbuf.Bytes(),
	}, nil
}

// faultCell pairs one sweep cell's result with its error for collection
// across the worker pool (worker goroutines must not call t.Fatal).
type faultCell struct {
	res faultRunResult
	err error
}

// faultCells runs world's fault rows at seeds 0 to seeds-1 settled on
// workers, in seed order.
func faultCells(world Spec, seeds, workers int) []faultCell {
	return runner.Map(seeds, workers, func(i int) faultCell {
		res, err := faultTorture(faultRow(world, uint64(i)), true)
		return faultCell{res, err}
	})
}

// checkSameRun demands that b reproduce a bit for bit — makespan, device
// and fault stats, metrics dump and trace sequence; what names the pair
// in a failure.
func checkSameRun(t *testing.T, what string, a, b faultCell) {
	t.Helper()
	if a.err != nil || b.err != nil {
		t.Fatalf("%s: %v / %v", what, a.err, b.err)
	}
	ra, rb := a.res, b.res
	if ra.makespan != rb.makespan {
		t.Errorf("%s: makespan %v != %v", what, ra.makespan, rb.makespan)
	}
	if ra.stats != rb.stats {
		t.Errorf("%s: device stats diverge:\n%+v\n%+v", what, ra.stats, rb.stats)
	}
	if ra.fstats != rb.fstats {
		t.Errorf("%s: fault stats diverge:\n%+v\n%+v", what, ra.fstats, rb.fstats)
	}
	if !bytes.Equal(ra.metricsJSON, rb.metricsJSON) {
		t.Errorf("%s: metric dumps diverge", what)
	}
	if len(ra.events) != len(rb.events) {
		t.Errorf("%s: %d trace events vs %d", what, len(ra.events), len(rb.events))
		return
	}
	for i := range ra.events {
		if ra.events[i] != rb.events[i] {
			t.Errorf("%s: trace diverges at %d: %v != %v", what, i, ra.events[i], rb.events[i])
			return
		}
	}
}

// TestTortureFaultSweep sweeps 64 seeds per flow control scheme through
// the full fault mix. Each run asserts no deadlock, payload integrity with
// per-pair FIFO matching, and the conservation audit; the sweep as a whole
// asserts the degradation machinery actually fired (no vacuous pass).
func TestTortureFaultSweep(t *testing.T) { faultSweep(t, Spec{Ranks: 4}) }

// TestTortureMultiRailFaultSweep is the fault sweep on the multiRail
// fabric: jitter, outages and go-back-N rewinds on QPs whose ports have a
// rail each connection must leave alone.
func TestTortureMultiRailFaultSweep(t *testing.T) { faultSweep(t, multiRail) }

// faultSweep runs 64 seeds of world under each scheme (its subtests are
// named for the scheme, and each one's subtest for its spec) and checks
// every run and the sweep's aggregates.
func faultSweep(t *testing.T, world Spec) {
	const seeds = 64
	for _, fc := range tortureSchemes {
		s := world
		s.Scheme = fc
		t.Run(fc.Kind.String(), func(t *testing.T) {
			t.Run(s.String(), func(t *testing.T) {
				var agg chdev.Stats
				var fagg fault.Stats
				for _, cell := range faultCells(s, seeds, runner.Default()) {
					if cell.err != nil {
						t.Fatal(cell.err)
					}
					res := cell.res
					agg.Add(res.stats)
					fagg.Jitters += res.fstats.Jitters
					fagg.OutageDelays += res.fstats.OutageDelays
					fagg.ForcedRNRs += res.fstats.ForcedRNRs
					fagg.AckDelays += res.fstats.AckDelays
					fagg.ECMDrops += res.fstats.ECMDrops
					fagg.ECMDups += res.fstats.ECMDups
				}
				if fagg.Jitters == 0 || fagg.OutageDelays == 0 ||
					fagg.ForcedRNRs == 0 || fagg.AckDelays == 0 {
					t.Errorf("%v: a fabric fault hook never fired across the sweep: %+v", s, fagg)
				}
				if agg.RNRExhausted == 0 {
					t.Errorf("%v: retry-exhaustion path never exercised: %+v", s, agg)
				}
				if fc.UserLevel() && fagg.ECMDrops == 0 {
					t.Errorf("%v: ECM drop path never exercised", s)
				}
				t.Logf("%v: %d seeds: jitters=%d outageDelays=%d forcedRNRs=%d ackDelays=%d "+
					"rnrExhausted=%d ecmDrops=%d ecmDups=%d",
					s, seeds, fagg.Jitters, fagg.OutageDelays, fagg.ForcedRNRs, fagg.AckDelays,
					agg.RNRExhausted, fagg.ECMDrops, fagg.ECMDups)
			})
		})
	}
}

// TestTortureFaultDeterminism reruns representative faulty seeds and
// demands bit-identical results (checkSameRun).
func TestTortureFaultDeterminism(t *testing.T) {
	for _, fc := range tortureSchemes {
		s := Spec{Ranks: 4, Scheme: fc}
		for _, seed := range []uint64{3, 17, 42} {
			row := faultRow(s, seed)
			run := func() faultCell {
				res, err := faultTorture(row, true)
				return faultCell{res, err}
			}
			checkSameRun(t, row.String(), run(), run())
		}
	}
}

// TestFaultRowReplaysFromItsSpec: a fault row is what it prints. One
// multirail cell per scheme, rebuilt from its text alone, reruns bit for
// bit (checkSameRun), so the line a failing cell prints replays it.
func TestFaultRowReplaysFromItsSpec(t *testing.T) {
	run := func(s Spec) faultCell {
		res, err := faultTorture(s, true)
		return faultCell{res, err}
	}
	for _, fc := range tortureSchemes {
		world := multiRail
		world.Scheme = fc
		cell := faultRow(world, 7)
		replay, err := ParseSpec(cell.String())
		if err != nil {
			t.Fatal(err)
		}
		checkSameRun(t, cell.String(), run(cell), run(replay))
	}
}

// TestTortureRDMARerunAllSeeds reruns every fault-sweep seed for the
// ring scheme and demands bit-identical results (checkSameRun). The new
// channel shape must be exactly as deterministic as the four it joins —
// all 64 seeds, not a sample.
func TestTortureRDMARerunAllSeeds(t *testing.T) {
	rerunAllSeeds(t, Spec{Ranks: 4, Scheme: core.RDMA(4, 1024)})
}

// TestTortureEndpointsRerunAllSeeds is the endpoint-set analogue of the
// ring rerun sweep: every fault-sweep seed runs the full fault mix over
// a two-endpoint set (tag-keyed worker threads multiplexing the
// schedule) twice, and the two runs must be bit-identical. Endpoint
// selection must be exactly as deterministic as the single connection it
// generalizes.
func TestTortureEndpointsRerunAllSeeds(t *testing.T) {
	rerunAllSeeds(t, Spec{Ranks: 4, Scheme: core.Dynamic(1, 64), Endpoints: 2})
}

// rerunAllSeeds runs the 64 fault-sweep seeds of s twice and compares
// each pair.
func rerunAllSeeds(t *testing.T, s Spec) {
	const seeds = 64
	a, b := faultCells(s, seeds, runner.Default()), faultCells(s, seeds, runner.Default())
	for seed := range a {
		checkSameRun(t, faultRow(s, uint64(seed)).String(), a[seed], b[seed])
	}
}

// TestTortureSerialParallelIdentical is the parallel runner's determinism
// contract end to end: sweeping the faulty torture workload with worker
// pools of several sizes must reproduce the serial sweep byte for byte
// (checkSameRun) for every flow control scheme. Worlds are share-nothing,
// so worker count may only change wall-clock time, never a result.
func TestTortureSerialParallelIdentical(t *testing.T) {
	const seeds = 8
	for _, fc := range tortureSchemes {
		s := Spec{Ranks: 4, Scheme: fc}
		t.Run(fc.Kind.String(), func(t *testing.T) {
			serial := faultCells(s, seeds, 1)
			for _, workers := range []int{2, 4} {
				for i, cell := range faultCells(s, seeds, workers) {
					checkSameRun(t, fmt.Sprintf("%v, %d workers", faultRow(s, uint64(i)), workers), serial[i], cell)
				}
			}
		})
	}
}

// TestTortureDeterminism reruns the same mixed workload and demands an
// identical virtual makespan — the simulator guarantee every performance
// assertion in this repository rests on.
func TestTortureDeterminism(t *testing.T) {
	mk := func() sim.Time {
		opts := DefaultOptions(core.Dynamic(1, 64))
		sched := tortureSchedule(4, 100, 0xabcd)
		w := NewWorld(4, opts)
		if err := w.Run(func(c *Comm) { tortureRank(c, sched) }); err != nil {
			t.Fatal(err)
		}
		return w.Time()
	}
	first := mk()
	for i := 0; i < 3; i++ {
		if got := mk(); got != first {
			t.Fatalf("run %d: %v != %v", i, got, first)
		}
	}
}

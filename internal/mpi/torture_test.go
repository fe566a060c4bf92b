package mpi

import (
	"bytes"
	"fmt"
	"testing"

	"ibflow/internal/chdev"
	"ibflow/internal/core"
	"ibflow/internal/fault"
	"ibflow/internal/ib"
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

// runTorture executes the schedule: every rank posts receives for its
// inbound messages in schedule order (per source, order must hold) and
// fires its sends in schedule order, then verifies every payload.
func runTorture(t *testing.T, opts Options, n, count int, seed uint64) {
	t.Helper()
	sched := tortureSchedule(n, count, seed)
	w := NewWorld(n, opts)
	err := w.Run(func(c *Comm) {
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
	})
	if err != nil {
		t.Fatalf("torture(%d ranks, %d msgs): %v", n, count, err)
	}
}

// TestTortureMatrix runs the mixed workload across every scheme (both
// eager channels), SMP placement and tiny pre-posts. Any mis-ordered
// match, credit leak or slot corruption fails payload verification or
// deadlocks.
func TestTortureMatrix(t *testing.T) {
	type cfg struct {
		name string
		mut  func(*Options)
	}
	schemes := []core.Params{
		core.Hardware(2),
		core.Static(2),
		core.Dynamic(1, 64),
		core.Shared(4, 64),
		core.RDMA(4, 1024),
	}
	variants := []cfg{
		{"sendrecv", func(o *Options) {}},
		{"smp", func(o *Options) { o.RanksPerNode = 2 }},
		{"ondemand", func(o *Options) { o.Chan.OnDemand = true }},
		// Two endpoints per rank pair; the tag-keyed worker threads in
		// runTorture multiplex the schedule over both.
		{"endpoints", func(o *Options) { o.Chan.Endpoints = 2 }},
		// Debug mode re-checks every credit invariant after each
		// progress pass; any leak panics the run.
		{"invariants", func(o *Options) { o.Chan.Debug = true }},
		{"multirail", multiRail},
	}
	for _, fc := range schemes {
		for _, v := range variants {
			fc, v := fc, v
			t.Run(fc.Kind.String()+"-"+v.name, func(t *testing.T) {
				opts := DefaultOptions(fc)
				v.mut(&opts)
				runTorture(t, opts, 4, 120, 0xfeed)
			})
		}
	}
}

// multiRail puts the world on a 2-rail fat tree of two-port leaves: every
// QP between leaves crosses the trunks, and mixed sizes on one QP must
// arrive in order although its port has a second rail (a connection's
// path is fixed at Connect).
func multiRail(o *Options) {
	o.IB.Topology = ib.TopoFatTree
	o.IB.LeafRadix = 2
	o.IB.Oversub = 1
	o.IB.Rails = 2
}

// TestTortureWaitOrderIndependence posts receives before or after the
// traffic arrives (receiver compute delays) — matching must not care.
func TestTortureDelayedReceivers(t *testing.T) {
	opts := DefaultOptions(core.Dynamic(1, 64))
	sched := tortureSchedule(4, 80, 0xbeef)
	w := NewWorld(4, opts)
	err := w.Run(func(c *Comm) {
		me := c.Rank()
		// Odd ranks sit out a long compute before receiving anything,
		// forcing deep unexpected queues at their devices.
		if me%2 == 1 {
			c.Compute(400 * sim.Microsecond)
		}
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
				c.Wait(c.Isend(m.dst, m.tag, data))
			}
		}
		c.Waitall(reqs...)
		for i, m := range expect {
			if !checkPattern(bufs[i], m.seed) {
				c.Abort("delayed receiver corruption")
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// faultTortureOpts builds an aggressively faulty job configuration: a
// finite RNR budget with geometric backoff, every fault hook armed, full
// invariant checking, and the settlement phase the end-of-run audit needs.
func faultTortureOpts(fc core.Params, seed uint64, tracer *trace.Buffer) Options {
	opts := DefaultOptions(fc)
	opts.IB.RNRTimeout = 20 * sim.Microsecond
	opts.IB.RNRRetryCount = 3
	opts.IB.RNRBackoffFactor = 2
	opts.IB.RNRBackoffMax = 160 * sim.Microsecond
	opts.IB.Tracer = tracer
	opts.Chan.Debug = true
	opts.Chan.Tracer = tracer
	opts.Settle = true
	// Instrumentation rides along under the full fault mix: the metric
	// dump is part of the bit-identical rerun contract below.
	opts.Metrics = metrics.New()
	// Backstop: a liveness bug surfaces as a crisp error, not a hang.
	opts.TimeLimit = 2 * sim.Second
	opts.Faults = fault.New(fault.Config{
		Seed:         seed,
		Nodes:        4,
		JitterProb:   0.2,
		JitterMax:    30 * sim.Microsecond,
		OutageCount:  2,
		OutageMax:    200 * sim.Microsecond,
		Horizon:      5 * sim.Millisecond,
		ECMDropProb:  0.3,
		ECMDupProb:   0.2,
		RNRForceProb: 0.25,
		AckDelayProb: 0.1,
		AckDelayMax:  20 * sim.Microsecond,
		Tracer:       tracer,
	})
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

// faultTorture executes one seeded faulty run and checks the per-run
// invariants: no deadlock, every payload intact and FIFO-matched, and the
// end-of-run audit (zero credit leak, message conservation, nothing
// stranded). It returns the run's observable state for rerun comparison.
// It builds a private world and touches nothing shared, so distinct
// (fc, seed) cells may run on parallel workers (see runner.Map).
func faultTorture(fc core.Params, seed uint64) (faultRunResult, error) {
	return faultTortureVariant(fc, seed, nil)
}

// faultTortureVariant is faultTorture with an Options mutator applied on
// top of the fault configuration, so channel variants (endpoint sets,
// on-demand connections) run under the identical fault mix. A variant
// that turns Settle off is not audited: an unsettled job may still have
// credits in flight.
func faultTortureVariant(fc core.Params, seed uint64, mut func(*Options)) (faultRunResult, error) {
	const n, count = 4, 40
	tracer := trace.NewBuffer(1 << 14)
	opts := faultTortureOpts(fc, seed, tracer)
	if mut != nil {
		mut(&opts)
	}
	sched := tortureSchedule(n, count, seed^0xf001)
	w := NewWorld(n, opts)
	firstExit := sim.MaxTime
	err := w.Run(func(c *Comm) {
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
				// Tag-keyed worker threads, as in runTorture: inert on a
				// single connection, endpoint-multiplexing under sets.
				c.Wait(c.Thread(m.tag).Isend(m.dst, m.tag, data))
			}
		}
		c.Waitall(reqs...)
		for i, m := range expect {
			if !checkPattern(bufs[i], m.seed) {
				c.Abort(fmt.Sprintf("payload %d from %d (tag %d, %dB) corrupted under faults",
					i, m.src, m.tag, m.size))
			}
		}
		// Run finalize's wait here, where its end can be observed; the
		// one World.Run issues after main then returns without a pass.
		c.r.dev.WaitProgress(c.r.proc, c.r.dev.Quiescent)
		firstExit = min(firstExit, c.Time())
	})
	if err != nil {
		return faultRunResult{}, fmt.Errorf("%v seed %#x: %w", fc.Kind, seed, err)
	}
	if opts.Settle {
		if err := w.Audit(); err != nil {
			return faultRunResult{}, fmt.Errorf("%v seed %#x: %w", fc.Kind, seed, err)
		}
	}
	var mbuf bytes.Buffer
	if err := w.Metrics().WriteJSON(&mbuf); err != nil {
		return faultRunResult{}, fmt.Errorf("%v seed %#x: metrics dump: %w", fc.Kind, seed, err)
	}
	return faultRunResult{
		makespan:    w.Time(),
		firstExit:   firstExit,
		stats:       w.Stats(),
		fstats:      opts.Faults.Stats(),
		events:      tracer.Events(),
		metricsJSON: mbuf.Bytes(),
	}, nil
}

// runFaultTorture is the single-run test-helper form of faultTorture.
func runFaultTorture(t *testing.T, fc core.Params, seed uint64) faultRunResult {
	t.Helper()
	res, err := faultTorture(fc, seed)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// faultCell pairs one sweep cell's result with its error for collection
// across the worker pool (worker goroutines must not call t.Fatal).
type faultCell struct {
	res faultRunResult
	err error
}

// TestTortureFaultSweep sweeps 64 seeds per flow control scheme through
// the full fault mix. Each run asserts no deadlock, payload integrity with
// per-pair FIFO matching, and the conservation audit; the sweep as a whole
// asserts the degradation machinery actually fired (no vacuous pass).
func TestTortureFaultSweep(t *testing.T) { faultSweep(t, nil) }

// TestTortureMultiRailFaultSweep is the fault sweep on the multiRail
// fabric: jitter, outages and go-back-N rewinds on QPs whose ports have a
// rail each connection must leave alone.
func TestTortureMultiRailFaultSweep(t *testing.T) { faultSweep(t, multiRail) }

// faultSweep runs 64 seeds per scheme through faultTortureVariant with
// mut applied and checks every run and the sweep's aggregates.
func faultSweep(t *testing.T, mut func(*Options)) {
	const seeds = 64
	schemes := []core.Params{
		core.Hardware(2),
		core.Static(2),
		core.Dynamic(1, 64),
		core.Shared(4, 64),
		core.RDMA(4, 1024),
	}
	for _, fc := range schemes {
		fc := fc
		t.Run(fc.Kind.String(), func(t *testing.T) {
			// The 64 seed cells are share-nothing worlds: fan them out
			// across the worker pool, then aggregate in seed order.
			cells := runner.Map(seeds, runner.Default(), func(i int) faultCell {
				res, err := faultTortureVariant(fc, uint64(i), mut)
				return faultCell{res: res, err: err}
			})
			var agg chdev.Stats
			var fagg fault.Stats
			for _, cell := range cells {
				if cell.err != nil {
					t.Fatal(cell.err)
				}
				res := cell.res
				agg.RNRExhausted += res.stats.RNRExhausted
				agg.Reissues += res.stats.Reissues
				agg.ECMsDropped += res.stats.ECMsDropped
				agg.ECMsDuplicated += res.stats.ECMsDuplicated
				fagg.Jitters += res.fstats.Jitters
				fagg.OutageDelays += res.fstats.OutageDelays
				fagg.ForcedRNRs += res.fstats.ForcedRNRs
				fagg.AckDelays += res.fstats.AckDelays
			}
			if fagg.Jitters == 0 || fagg.OutageDelays == 0 ||
				fagg.ForcedRNRs == 0 || fagg.AckDelays == 0 {
				t.Errorf("a fabric fault hook never fired across the sweep: %+v", fagg)
			}
			if agg.RNRExhausted == 0 || agg.Reissues == 0 {
				t.Errorf("retry-exhaustion path never exercised: %+v", agg)
			}
			if fc.UserLevel() && agg.ECMsDropped == 0 {
				t.Errorf("ECM drop path never exercised under %v", fc.Kind)
			}
			t.Logf("%v: %d seeds: jitters=%d outageDelays=%d forcedRNRs=%d ackDelays=%d "+
				"rnrExhausted=%d reissues=%d ecmDrops=%d ecmDups=%d",
				fc.Kind, seeds, fagg.Jitters, fagg.OutageDelays, fagg.ForcedRNRs, fagg.AckDelays,
				agg.RNRExhausted, agg.Reissues, agg.ECMsDropped, agg.ECMsDuplicated)
		})
	}
}

// TestTortureFaultDeterminism reruns representative faulty seeds and
// demands bit-identical results: same makespan, same device and fault
// stats, and the same trace event sequence.
func TestTortureFaultDeterminism(t *testing.T) {
	schemes := []core.Params{
		core.Hardware(2),
		core.Static(2),
		core.Dynamic(1, 64),
		core.Shared(4, 64),
		core.RDMA(4, 1024),
	}
	for _, fc := range schemes {
		for _, seed := range []uint64{3, 17, 42} {
			a := runFaultTorture(t, fc, seed)
			b := runFaultTorture(t, fc, seed)
			if a.makespan != b.makespan {
				t.Errorf("%v seed %#x: makespan %v != %v", fc.Kind, seed, a.makespan, b.makespan)
			}
			if a.stats != b.stats {
				t.Errorf("%v seed %#x: device stats diverge:\n%+v\n%+v", fc.Kind, seed, a.stats, b.stats)
			}
			if a.fstats != b.fstats {
				t.Errorf("%v seed %#x: fault stats diverge:\n%+v\n%+v", fc.Kind, seed, a.fstats, b.fstats)
			}
			if !bytes.Equal(a.metricsJSON, b.metricsJSON) {
				t.Errorf("%v seed %#x: metric dumps diverge between identical runs", fc.Kind, seed)
			}
			if len(a.events) != len(b.events) {
				t.Errorf("%v seed %#x: %d trace events vs %d", fc.Kind, seed, len(a.events), len(b.events))
				continue
			}
			for i := range a.events {
				if a.events[i] != b.events[i] {
					t.Errorf("%v seed %#x: trace diverges at %d: %v != %v",
						fc.Kind, seed, i, a.events[i], b.events[i])
					break
				}
			}
		}
	}
}

// TestTortureRDMARerunAllSeeds reruns every fault-sweep seed for the
// ring scheme and demands bit-identical results: same makespan, same
// device and fault stats, same metrics dump, same trace event sequence.
// The new channel shape must be exactly as deterministic as the four it
// joins — all 64 seeds, not a sample.
func TestTortureRDMARerunAllSeeds(t *testing.T) {
	const seeds = 64
	fc := core.RDMA(4, 1024)
	type rerunCell struct{ a, b faultCell }
	cells := runner.Map(seeds, runner.Default(), func(i int) rerunCell {
		ra, ea := faultTorture(fc, uint64(i))
		rb, eb := faultTorture(fc, uint64(i))
		return rerunCell{faultCell{ra, ea}, faultCell{rb, eb}}
	})
	for seed, cell := range cells {
		if cell.a.err != nil {
			t.Fatalf("seed %d: %v", seed, cell.a.err)
		}
		if cell.b.err != nil {
			t.Fatalf("seed %d rerun: %v", seed, cell.b.err)
		}
		a, b := cell.a.res, cell.b.res
		if a.makespan != b.makespan {
			t.Errorf("seed %d: makespan %v != %v", seed, a.makespan, b.makespan)
		}
		if a.stats != b.stats {
			t.Errorf("seed %d: device stats diverge:\n%+v\n%+v", seed, a.stats, b.stats)
		}
		if a.fstats != b.fstats {
			t.Errorf("seed %d: fault stats diverge:\n%+v\n%+v", seed, a.fstats, b.fstats)
		}
		if !bytes.Equal(a.metricsJSON, b.metricsJSON) {
			t.Errorf("seed %d: metric dumps diverge between identical runs", seed)
		}
		if len(a.events) != len(b.events) {
			t.Errorf("seed %d: %d trace events vs %d", seed, len(a.events), len(b.events))
			continue
		}
		for i := range a.events {
			if a.events[i] != b.events[i] {
				t.Errorf("seed %d: trace diverges at %d: %v != %v",
					seed, i, a.events[i], b.events[i])
				break
			}
		}
	}
}

// TestTortureEndpointsRerunAllSeeds is the endpoint-set analogue of the
// ring rerun sweep: every fault-sweep seed runs the full fault mix over
// a two-endpoint set (tag-keyed worker threads multiplexing the
// schedule) twice, and the two runs must be bit-identical — same
// makespan, device and fault stats, metrics dump, and trace sequence.
// Endpoint selection must be exactly as deterministic as the single
// connection it generalizes.
func TestTortureEndpointsRerunAllSeeds(t *testing.T) {
	const seeds = 64
	fc := core.Dynamic(1, 64)
	endpoints := func(o *Options) { o.Chan.Endpoints = 2 }
	type rerunCell struct{ a, b faultCell }
	cells := runner.Map(seeds, runner.Default(), func(i int) rerunCell {
		ra, ea := faultTortureVariant(fc, uint64(i), endpoints)
		rb, eb := faultTortureVariant(fc, uint64(i), endpoints)
		return rerunCell{faultCell{ra, ea}, faultCell{rb, eb}}
	})
	for seed, cell := range cells {
		if cell.a.err != nil {
			t.Fatalf("seed %d: %v", seed, cell.a.err)
		}
		if cell.b.err != nil {
			t.Fatalf("seed %d rerun: %v", seed, cell.b.err)
		}
		a, b := cell.a.res, cell.b.res
		if a.makespan != b.makespan {
			t.Errorf("seed %d: makespan %v != %v", seed, a.makespan, b.makespan)
		}
		if a.stats != b.stats {
			t.Errorf("seed %d: device stats diverge:\n%+v\n%+v", seed, a.stats, b.stats)
		}
		if a.fstats != b.fstats {
			t.Errorf("seed %d: fault stats diverge:\n%+v\n%+v", seed, a.fstats, b.fstats)
		}
		if !bytes.Equal(a.metricsJSON, b.metricsJSON) {
			t.Errorf("seed %d: metric dumps diverge between identical runs", seed)
		}
		if len(a.events) != len(b.events) {
			t.Errorf("seed %d: %d trace events vs %d", seed, len(a.events), len(b.events))
			continue
		}
		for i := range a.events {
			if a.events[i] != b.events[i] {
				t.Errorf("seed %d: trace diverges at %d: %v != %v",
					seed, i, a.events[i], b.events[i])
				break
			}
		}
	}
}

// TestTortureSerialParallelIdentical is the parallel runner's determinism
// contract end to end: sweeping the faulty torture workload with worker
// pools of several sizes must reproduce the serial sweep byte for byte —
// same makespans, same device and fault stats, same trace event
// sequences, same metrics JSON — for every flow control scheme. Worlds
// are share-nothing, so worker count may only change wall-clock time,
// never a result.
func TestTortureSerialParallelIdentical(t *testing.T) {
	const seeds = 8
	schemes := []core.Params{
		core.Hardware(2),
		core.Static(2),
		core.Dynamic(1, 64),
		core.Shared(4, 64),
		core.RDMA(4, 1024),
	}
	for _, fc := range schemes {
		fc := fc
		t.Run(fc.Kind.String(), func(t *testing.T) {
			sweep := func(workers int) []faultCell {
				return runner.Map(seeds, workers, func(i int) faultCell {
					res, err := faultTorture(fc, uint64(i))
					return faultCell{res: res, err: err}
				})
			}
			serial := sweep(1)
			for _, cell := range serial {
				if cell.err != nil {
					t.Fatal(cell.err)
				}
			}
			for _, workers := range []int{2, 4} {
				par := sweep(workers)
				for i := range serial {
					a, b := serial[i], par[i]
					if b.err != nil {
						t.Fatalf("workers=%d seed %d: %v", workers, i, b.err)
					}
					if a.res.makespan != b.res.makespan {
						t.Errorf("workers=%d seed %d: makespan %v != %v",
							workers, i, b.res.makespan, a.res.makespan)
					}
					if a.res.stats != b.res.stats {
						t.Errorf("workers=%d seed %d: device stats diverge:\n%+v\n%+v",
							workers, i, b.res.stats, a.res.stats)
					}
					if a.res.fstats != b.res.fstats {
						t.Errorf("workers=%d seed %d: fault stats diverge:\n%+v\n%+v",
							workers, i, b.res.fstats, a.res.fstats)
					}
					if !bytes.Equal(a.res.metricsJSON, b.res.metricsJSON) {
						t.Errorf("workers=%d seed %d: metrics JSON diverges from serial sweep",
							workers, i)
					}
					if len(a.res.events) != len(b.res.events) {
						t.Errorf("workers=%d seed %d: %d trace events vs %d",
							workers, i, len(b.res.events), len(a.res.events))
						continue
					}
					for j := range a.res.events {
						if a.res.events[j] != b.res.events[j] {
							t.Errorf("workers=%d seed %d: trace diverges at %d: %v != %v",
								workers, i, j, b.res.events[j], a.res.events[j])
							break
						}
					}
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
		if err := w.Run(func(c *Comm) {
			me := c.Rank()
			var reqs []*Request
			for _, m := range sched {
				if m.dst == me {
					reqs = append(reqs, c.Irecv(m.src, m.tag, make([]byte, m.size)))
				}
			}
			for _, m := range sched {
				if m.src == me {
					data := make([]byte, m.size)
					fillPattern(data, m.seed)
					c.Wait(c.Isend(m.dst, m.tag, data))
				}
			}
			c.Waitall(reqs...)
		}); err != nil {
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

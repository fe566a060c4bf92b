package bench

import (
	"runtime"
	"testing"

	"ibflow/internal/core"
	"ibflow/internal/debug"
	"ibflow/internal/mpi"
)

// smokeDoc is the quick scaling sweep's configuration (fat tree from 64
// ranks) for the allocation gates and the scale-cell tests, with
// on-demand connections from onDemandFrom ranks up.
func smokeDoc(fanout, onDemandFrom int) ScalingDoc {
	return ScalingDoc{
		Provision: Provision{
			Prepost: 8, DynMax: 64, PoolPrepost: 16, PoolMax: 96,
			RingSlots: 8, SlotBytes: 1024,
		},
		Fanout: fanout, FatTreeFrom: 64, LeafRadix: 32, Oversub: 2, Rails: 2,
		OnDemandFrom: onDemandFrom,
	}
}

// TestScalingSteadyAllocGate is the world-level allocation gate. It runs
// the quick sweep's 128-rank cell at two traffic volumes and
// differences the process malloc counter, so world setup and the first
// pass through every pool cancel out and what remains is the marginal
// cost of one more message in steady state. The counter is process-wide,
// so no test in this package may call t.Parallel.
//
// The storm main slab-allocates its payloads and pre-sizes its request
// list, the MPI layer recycles request boxes and stages unexpected eager
// payloads through the device pool, and the transport runs on recycled
// WQEs and bound CQ handlers — so the marginal cost of one more message
// is amortized pool/slab refills only: measured 0.32 (static) to 0.50
// (dynamic), the same under -race, 0.36–0.53 under -tags ibdebug. The
// bound is 1 allocation per message, so one extra object per message
// anywhere on the path — a buffer, a request, a WQE, or a local whose
// address escapes through the provisioner interface (that one read +3.1
// under every scheme) — fails it: one new(int) per eager message in
// encodeEager reads 1.32–1.50. All five schemes are gated;
// hardware/static/dynamic/shared share the send/recv eager machinery and
// rdma is the ring channel, whose slot reserve/write/consume cycle must
// be just as free.
//
// The rendezvous path is gated the same way, one cell per transport
// shape (write: RTS, CTS, RDMA write, FIN; read: RTS, RDMA read, FIN): the
// storm's peer set at 16 KB, in rounds (rendezvousRounds), differenced
// over the number of rounds. Its state is pooled on both sides and the
// buffers are reused, so one more rendezvous costs chunk refills at most —
// measured 0.03 under both shapes (2.06 and 2.07 before the state was pooled) — and the bound is 0.25: the next &T{}
// on the path costs 1 and fails it.
//
// Under -tags ibdebug the assertions allocate on the rendezvous path:
// the cells read 9.21 (write) and 1.44 (read) and are skipped there,
// while the eager cells stay gated.
func TestScalingSteadyAllocGate(t *testing.T) {
	const ranks, size, rndvSize, fanout = 128, 256, 16 << 10, 24
	const msgsLow, msgsHigh = 6, 12
	doc := smokeDoc(fanout, 512)
	cellMallocs := func(fc core.Params, main func(c *mpi.Comm)) uint64 {
		s := doc.spec(fc, ranks)
		w := newWorld(s, nil)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := w.Run(main); err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	for _, fc := range doc.Schemes() {
		low := cellMallocs(fc, scalingStorm(msgsLow, size, fanout))
		high := cellMallocs(fc, scalingStorm(msgsHigh, size, fanout))
		checkPerMsg(t, "eager", fc, low, high, msgsLow, msgsHigh, ranks*fanout, 1)
	}
	if debug.Enabled {
		t.Skip("ibdebug assertions allocate 9.21 (write) and 1.44 (read) objects per rendezvous")
	}
	for _, fc := range []core.Params{core.Static(doc.Prepost), core.RDMA(doc.RingSlots, doc.SlotBytes)} {
		low := cellMallocs(fc, rendezvousRounds(msgsLow, rndvSize, fanout))
		high := cellMallocs(fc, rendezvousRounds(msgsHigh, rndvSize, fanout))
		checkPerMsg(t, "rendezvous", fc, low, high, msgsLow, msgsHigh, ranks*fanout, 0.25)
	}
}

// rendezvousRounds is the storm's exchange — every rank with the storm's
// peers — made round by round: one message of size bytes per peer and
// direction, a Waitall, and again. The eager storm posts everything at
// once, which is what it is for; at rendezvous size that makes the work in
// flight (work requests, events, queue depth) grow with the message count,
// and differencing two counts would measure that growth. A round's
// concurrency does not depend on how many rounds follow, and a peer's
// messages all leave from and land in one buffer, so every registration
// after the first hits the pin-down cache: what is differenced is the
// protocol's own cost per message. A peer a round ahead finds no receive
// posted, so the deferred accept (Device.AcceptRndv) is exercised too.
func rendezvousRounds(rounds, size, fanout int) func(c *mpi.Comm) {
	return func(c *mpi.Comm) {
		recvSrc, sendDst := stormPeers(c.Rank(), c.Size(), fanout)
		recvSlab := make([]byte, len(recvSrc)*size)
		sendBuf := make([]byte, size)
		reqs := make([]*mpi.Request, 0, len(recvSrc)+len(sendDst))
		for r := 0; r < rounds; r++ {
			reqs = reqs[:0]
			for i, src := range recvSrc {
				reqs = append(reqs, c.Irecv(src, r, recvSlab[i*size:(i+1)*size]))
			}
			for _, dst := range sendDst {
				reqs = append(reqs, c.Isend(dst, r, sendBuf))
			}
			c.Waitall(reqs...)
		}
	}
}

// TestConnSetupBudget is the set-up twin of the steady-state gate: what
// one connection end costs the host when it
// is established inside the run. The steady gate differences two traffic
// volumes, so set-up cancels out of it by construction; this one runs
// the 128-rank on-demand storm at 2 messages per peer — the repo
// benchmark's storm_1024 shape — where set-up is nearly all there is,
// and divides by the connection ends established, twice: what World.Run
// allocates (TotalAlloc, Mallocs), and what the finished world retains —
// HeapAlloc after a forced GC with the world still referenced, less the
// same reading before NewWorld, which is the quantity the benchmark
// reports as live_heap_mb. An end is one object (DESIGN.md, provisioning
// seam): its conn, holding VC, QP, both queues' first rings and the
// landing region by value, 952 B in the 1 024-byte size class
// (TestConnSize); a posted receive is a descriptor, and descriptors
// posted alike are one run of the receive queue; a ring slot commits when
// it is first written; and an on-demand device's buffer pool grows with
// what lands, in size classes, so a 304-byte packet holds 512 B. Measured,
// allocated B / objects / retained B per end: 2.56 KB / 2.1 / 1.94 KB
// (hardware, static, dynamic), 2.40 KB / 2.6 / 1.83 KB (shared), 3.42 KB /
// 2.9 / 2.80 KB (rdma; 3.57 KB / 3.0 / 2.88 KB under -tags ibdebug); the
// byte gates are the worst release reading plus ~10 %. With every packet
// in a BufSize buffer and eight descriptors inline in each QP, the same
// ends read 4.15 KB / 2.3 / 3.49 KB (static) and 3.82 KB / 3.0 / 3.17 KB
// (rdma); eight objects per end and a warmed 128 KB pool per device read
// 5.4 KB / 11.1 / 4.7 KB, and whole-ring commits 9.7 KB / 13.8 / 9.0 KB
// on the ring.
func TestConnSetupBudget(t *testing.T) {
	const ranks, size, fanout, msgs = 128, 256, 24, 2
	const maxBytes, maxObjs, maxRetained = 3800, 4, 3100
	doc := smokeDoc(fanout, ranks)
	for _, fc := range doc.Schemes() {
		var base, before, after, settled runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&base)
		s := doc.spec(fc, ranks)
		w := newWorld(s, nil)
		runtime.ReadMemStats(&before)
		if err := w.Run(scalingStorm(msgs, size, fanout)); err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		runtime.ReadMemStats(&after)
		runtime.GC()
		runtime.ReadMemStats(&settled)
		ends := float64(w.Stats().Conns)
		runtime.KeepAlive(w)
		if ends == 0 {
			t.Fatalf("%v: the on-demand storm established nothing", fc.Kind)
		}
		bytesPerEnd := float64(after.TotalAlloc-before.TotalAlloc) / ends
		objsPerEnd := float64(after.Mallocs-before.Mallocs) / ends
		retainedPerEnd := (float64(settled.HeapAlloc) - float64(base.HeapAlloc)) / ends
		t.Logf("%v: %.0f connection ends, %.0f B and %.1f objects allocated, %.0f B retained per end",
			fc.Kind, ends, bytesPerEnd, objsPerEnd, retainedPerEnd)
		if bytesPerEnd > maxBytes || objsPerEnd > maxObjs {
			t.Errorf("%v: a connection end costs %.0f B / %.1f objects across World.Run, want <= %d B / %d",
				fc.Kind, bytesPerEnd, objsPerEnd, maxBytes, maxObjs)
		}
		if retainedPerEnd > maxRetained {
			t.Errorf("%v: the finished world retains %.0f B per connection end, want <= %d",
				fc.Kind, retainedPerEnd, maxRetained)
		}
	}
}

// TestEndpointsSteadyAllocGate repeats the steady-state allocation gate
// with a four-endpoint set per rank pair. Endpoint selection sits on the
// send hot path — the sticky policy is an index computation — so the
// marginal cost of a message must not move when the connection fans out
// into a set: measured 0.34–0.55, bound 1 as above. Under -tags ibdebug
// the assertions allocate 6.06–10.45 objects per message here, so that
// build skips the gate.
func TestEndpointsSteadyAllocGate(t *testing.T) {
	if debug.Enabled {
		t.Skip("ibdebug assertions allocate 6.06–10.45 objects per eager message on a four-endpoint set")
	}
	const ranks, size, fanout = 128, 256, 24
	doc := smokeDoc(fanout, 512)
	cellMallocs := func(fc core.Params, msgs int) uint64 {
		s := doc.spec(fc, ranks)
		s.Endpoints = 4
		w := newWorld(s, nil)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := w.Run(scalingStorm(msgs, size, fanout)); err != nil {
			t.Fatalf("%v, %d msgs: %v", s, msgs, err)
		}
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	for _, fc := range doc.Schemes() {
		const msgsLow, msgsHigh = 6, 12
		low := cellMallocs(fc, msgsLow)
		high := cellMallocs(fc, msgsHigh)
		checkPerMsg(t, "eager", fc, low, high, msgsLow, msgsHigh, ranks*fanout, 1)
	}
}

// checkPerMsg differences two traffic volumes' malloc counts and
// enforces the steady-state bound of max allocations per message.
func checkPerMsg(t *testing.T, path string, fc core.Params, low, high uint64, msgsLow, msgsHigh, flows int, max float64) {
	t.Helper()
	if high <= low {
		t.Fatalf("%v %s: malloc counter did not grow with traffic: %d for %d msgs, %d for %d",
			fc.Kind, path, low, msgsLow, high, msgsHigh)
	}
	extraMsgs := uint64(flows * (msgsHigh - msgsLow))
	perMsg := float64(high-low) / float64(extraMsgs)
	t.Logf("%v %s: marginal allocations per message: %.2f (%d extra mallocs over %d extra messages)",
		fc.Kind, path, perMsg, high-low, extraMsgs)
	if perMsg > max {
		t.Errorf("%v %s: steady state allocates %.2f objects per message, want <= %v (amortized pool and chunk refills only)",
			fc.Kind, path, perMsg, max)
	}
}

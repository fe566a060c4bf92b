package chdev

import (
	"fmt"
	"slices"

	"ibflow/internal/core"
	"ibflow/internal/debug"
	"ibflow/internal/ib"
	"ibflow/internal/mem"
	"ibflow/internal/metrics"
	"ibflow/internal/sim"
	"ibflow/internal/store"
	"ibflow/internal/trace"
)

// Handler is the upcall interface the MPI layer implements. The device
// calls it from inside its progress engine — plain event context, not a
// process — so handlers must not block or charge virtual time; the
// device itself charges the copy and registration overheads.
type Handler interface {
	// DeliverEagerStart hands over a complete small message for
	// communicator comm. data is only valid until DeliverEagerDone
	// returns (it aliases a pre-pinned buffer about to be re-posted).
	// The device charges the payload copy between Start and Done; the
	// handler does its matching here and applies the copy's effects in
	// DeliverEagerDone.
	DeliverEagerStart(src, tag int, comm uint16, data []byte)
	// DeliverEagerDone fires once the copy charge for the message
	// announced by the last DeliverEagerStart has elapsed.
	DeliverEagerDone()
	// DeliverRndvStart announces an incoming rendezvous. Returning
	// (buf, true) accepts immediately into buf — the device runs the
	// registration and CTS itself. Returning (nil, false) defers: the
	// handler keeps r and calls Device.AcceptRndv later, once a
	// matching receive buffer exists.
	DeliverRndvStart(r *RndvIn) (buf []byte, accept bool)
	// DeliverRndvDone reports that an accepted rendezvous finished: the
	// data is in the buffer passed to AcceptRndv. A *RndvIn is the
	// handler's until DeliverRndvDone returns; the device recycles it then.
	DeliverRndvDone(r *RndvIn)
	// SendDone reports that the send identified by token completed in
	// the MPI sense (its user buffer is reusable).
	SendDone(token any)
}

// backlogEntry is a send held back by user-level flow control: either a
// pre-encoded eager packet or a rendezvous start kept in order behind
// eager traffic.
type backlogEntry struct {
	buf  []byte // eager: encoded packet (nil for rendezvous entries)
	n    int    // eager: packet length
	rndv *rndvOut
}

// conn is one endpoint (virtual channel + queue pair) toward a peer
// rank. A rank pair owns an endpoint set of Config.Endpoints conns,
// each with independent scheme state; the classic device is the
// single-endpoint special case. An end holds its VC, its QP (with both
// queues' first rings) and its landing region by value, and is carved
// from the world's end slab (endSlab), which hands each end out once and
// never moves it — everything here that points into a conn (the QP's
// owner and bound events, the peer QP, the live list) relies on it
// staying where it is.
type conn struct {
	peer int32 // the peer's world rank
	ep   int32 // index within the peer's endpoint set

	// occ counts the work requests posted on qp and not yet retired —
	// what qp holds whenever the CQ is empty (debugCheckConn) — and occHWM
	// is its high-water mark, the per-endpoint occupancy the contention
	// benchmark plots. Guarded by fclint's creditmut: mutation only
	// through noteOut and noteRetired. A completion names what it retires
	// (retireSend), so the end keeps no record per request.
	occ, occHWM int32
	// reissues counts the re-issues of the request heading qp: a QP
	// completes in post order and fails only its head, so the count is
	// that request's until a success resets it.
	reissues int32
	// seqOut numbers the data packets (eager, RTS) this end creates, from
	// 1 (Header.Seq); seqIn is the last that arrived (debugCheckSeq).
	seqOut, seqIn uint32

	qp      ib.QP
	vc      core.VC
	backlog store.Fifo[backlogEntry]

	// Explicit-credit-message silence gate state.
	lastSend sim.Time   // last outgoing traffic on this connection
	ecmTimer *sim.Timer // deferred ECM when the gate is still closed

	// ringMR is where the peer writes this end's eager arrivals, the
	// provisioner's to set and use (provision.go); this end's write
	// target is the peer end's, reached through the QP (peerEnd). Unset
	// for a shape whose arrivals all land in receive descriptors.
	ringMR ib.MR
}

// peerEnd returns the connection's other end: the owner of the QP this
// end's QP is connected to.
func (c *conn) peerEnd() *conn { return c.qp.Peer().Owner().(*conn) }

// noteOut records that a work request was posted on qp.
func (c *conn) noteOut() {
	c.occ++
	c.occHWM = max(c.occHWM, c.occ)
}

// noteRetired records that the request heading qp completed successfully.
func (c *conn) noteRetired() {
	c.occ--
	c.reissues = 0
}

// Stats aggregates a device's flow control and transport counters.
type Stats struct {
	Rank          int
	Conns         int    // established connections
	MsgsSent      uint64 // every message posted (data + control), Table 1
	EagerSent     uint64
	Demoted       uint64
	Backlogged    uint64
	ECMsSent      uint64 // explicit credit messages, Table 1
	GrowthEvents  uint64
	MaxPosted     int // max pre-post over connections, Table 2
	SumPosted     int // current pre-post total (buffer memory proxy)
	RNRNaks       uint64
	Retransmits   uint64
	WastedBytes   uint64
	RegHits       uint64
	RegMisses     uint64
	BufBytesInUse int // pre-posted receive buffer memory, bytes
	BufBytesHWM   int // high-water mark of receive buffer memory, bytes

	// Shared-pool counters (core.KindShared).
	LimitEvents uint64 // SRQ low-watermark events handled

	// Ring-channel counters (core.KindRDMA).
	RingSyncs        uint64 // explicit head-sync messages (reverse path idle)
	RingOccupancyHWM int    // max in-flight ring slots over connections
	RndvReadBytes    uint64 // payload bytes pulled by RDMA-read rendezvous

	// Graceful-degradation counters (fault handling).
	RNRExhausted uint64 // transport retry budgets exhausted

	// Endpoint-set and connection set-up counters.
	OccupancyHWM int    // max outstanding work requests on any endpoint
	StickySels   uint64 // sends routed over a set, each pinned by its thread
	ConnSetups   int    // on-demand connection establishments initiated
}

// Add folds o into s. It is the one merge rule of every field, used at
// both levels — Device.Stats adds each live end's counters, World.Stats
// each device's: counters and live totals sum, high-water marks
// (MaxPosted and the *HWM fields) take the max, and Rank is left alone.
func (s *Stats) Add(o Stats) {
	s.Conns += o.Conns
	s.MsgsSent += o.MsgsSent
	s.EagerSent += o.EagerSent
	s.Demoted += o.Demoted
	s.Backlogged += o.Backlogged
	s.ECMsSent += o.ECMsSent
	s.GrowthEvents += o.GrowthEvents
	s.MaxPosted = max(s.MaxPosted, o.MaxPosted)
	s.SumPosted += o.SumPosted
	s.RNRNaks += o.RNRNaks
	s.Retransmits += o.Retransmits
	s.WastedBytes += o.WastedBytes
	s.RegHits += o.RegHits
	s.RegMisses += o.RegMisses
	s.BufBytesInUse += o.BufBytesInUse
	s.BufBytesHWM = max(s.BufBytesHWM, o.BufBytesHWM)
	s.LimitEvents += o.LimitEvents
	s.RingSyncs += o.RingSyncs
	s.RingOccupancyHWM = max(s.RingOccupancyHWM, o.RingOccupancyHWM)
	s.RndvReadBytes += o.RndvReadBytes
	s.RNRExhausted += o.RNRExhausted
	s.OccupancyHWM = max(s.OccupancyHWM, o.OccupancyHWM)
	s.StickySels += o.StickySels
	s.ConnSetups += o.ConnSetups
}

// Device is one rank's channel device.
type Device struct {
	eng     *sim.Engine
	hca     *ib.HCA
	cq      *ib.CQ
	cfg     Config
	params  core.Params
	rank    int
	size    int
	handler Handler

	pool   *mem.BufPool
	regs   *mem.RegCache
	blocks mem.Blocks // AllocMem's free lists
	// live is the connection table: every established endpoint in
	// (peer, ep) order, so a peer's endpoint set is cfg.Endpoints
	// consecutive entries (eps). The send-side lookup, credit flush, stats
	// and audit walk it, so the device's cost follows the connections that
	// exist, not the job size. addConn is its only writer.
	live  []*conn
	peers []*Device
	ends  *endSlab // the world's, shared by every device Wire connects

	// curTID is the logical thread the next send is issued from, set by
	// BindThread. It and the endpoint-set size (cfg.Endpoints, at least 1)
	// feed the endpoint-selection seam, which counts its selections over
	// sets of more than one in stickySels.
	curTID     int
	stickySels uint64

	// prov owns the transport shape (see recvProvisioner); eagerMax is the
	// largest payload its eager channel carries.
	prov     recvProvisioner
	eagerMax int

	// Rendezvous in flight, keyed by end and RTS number (rndvKey), so one
	// table serves every connection. The entries live in the two pools: a
	// message in flight allocates neither.
	sendRndv map[uint64]*rndvOut
	recvRndv map[uint64]*RndvIn
	outs     store.Pool[rndvOut]
	ins      store.Pool[RndvIn]

	setups int // on-demand connection setups initiated

	// progress is the device's bound-handler progress engine; gate parks
	// the rank's process for the duration of a blocking progress session
	// and resumes it inline when the session ends.
	progress progressMachine
	gate     *sim.Gate

	// tracer is the world's (ib.Config.Tracer), read from the fabric in
	// New so that the trace check is one load and a nil test; nil when
	// the world traces nothing. The registry and the ECM fault hook are
	// read from the fabric where they are used (registry, sendReturn).
	tracer *trace.Buffer

	// rndvHist, when metrics are attached, is the per-rank histogram of
	// sender-side rendezvous latency (RTS posted to FIN sent).
	rndvHist *metrics.Histogram
}

// New creates a channel device for rank on hca. Wire must be called on the
// full device set before any communication.
func New(eng *sim.Engine, hca *ib.HCA, cfg Config, params core.Params, rank, size int, h Handler) *Device {
	if err := params.Validate(); err != nil {
		panic(err)
	}
	if cfg.Endpoints < 0 {
		panic(fmt.Sprintf("chdev: negative endpoint count %d", cfg.Endpoints))
	}
	cfg.Endpoints = max(cfg.Endpoints, 1)
	d := &Device{
		eng:      eng,
		hca:      hca,
		cq:       hca.NewCQ(),
		cfg:      cfg,
		params:   params,
		rank:     rank,
		size:     size,
		handler:  h,
		pool:     mem.NewBufPool(bufSize),
		regs:     mem.NewRegCache(hca),
		sendRndv: make(map[uint64]*rndvOut),
		recvRndv: make(map[uint64]*RndvIn),
		tracer:   hca.Fabric().Config().Tracer,
	}
	d.gate = sim.NewGate(eng)
	d.progress.d = d
	d.cq.SetNotify(&d.progress)
	if r := d.registry(); r != nil {
		d.rndvHist = r.Histogram("chdev_rndv_ns", metrics.TimeBuckets, metrics.RankLabel(rank))
	}
	d.prov, d.eagerMax = newProvisioner(d)
	d.registerMetrics()
	return d
}

// registry returns the world's metrics registry (ib.Config.Metrics), or
// nil. Only set-up paths read it: a series registers once and is read at
// sampling instants.
func (d *Device) registry() *metrics.Registry { return d.hca.Fabric().Config().Metrics }

// registerMetrics folds the device's own gauges into the configured
// registry as reader closures; without a registry nothing is built — no
// closure, no label — as for a QP's and a VC's series.
func (d *Device) registerMetrics() {
	r := d.registry()
	if r == nil {
		return
	}
	rank := metrics.RankLabel(d.rank)
	r.GaugeFunc("chdev_buf_bytes_hwm", func() int64 { return int64(d.Stats().BufBytesHWM) }, rank)
	// Buffer-pool health. The gauges count host buffers, not descriptors:
	// a posted receive holds no buffer, so outstanding and out_hwm read
	// the packets being staged, sent or processed at once (zero at
	// quiescence) and allocated the most that ever coexisted.
	r.GaugeFunc("chdev_pool_outstanding", func() int64 { return int64(d.pool.Outstanding()) }, rank)
	r.GaugeFunc("chdev_pool_out_hwm", func() int64 { return int64(d.pool.MaxOutstanding()) }, rank)
	r.GaugeFunc("chdev_pool_allocated", func() int64 { return int64(d.pool.Allocated()) }, rank)
	r.GaugeFunc("chdev_pool_recycled", func() int64 { return int64(d.pool.Recycled()) }, rank)
	if d.cfg.Endpoints > 1 {
		// Endpoint-set observability, registered only for true sets: a
		// size-1 device keeps exactly the pre-endpoint metric inventory
		// (the fcstats key goldens and the semantic goldens' key digest
		// pin it). An endpoint-set dump is then a strict superset of the
		// classic dump — endpoint 0 keeps the classic per-connection
		// labels (metrics.ConnLabels) — so fcstats -allow-new-keys
		// diffs the two cleanly.
		r.GaugeFunc("chdev_endpoints_active", func() int64 { return int64(d.Stats().Conns) }, rank)
		r.GaugeFunc("chdev_ep_occupancy_hwm", func() int64 { return int64(d.Stats().OccupancyHWM) }, rank)
		r.CounterFunc("chdev_ep_sel_sticky", func() uint64 { return d.Stats().StickySels }, rank)
	}
}

// tr records a trace event if tracing is enabled. seq names the message
// the event is about (Header.Seq), 0 for none.
func (d *Device) tr(kind trace.Kind, peer int, seq uint32, arg int64) {
	if d.tracer != nil {
		d.tracer.Add(trace.Event{T: d.eng.Now(), Rank: d.rank, Peer: peer, Kind: kind, Seq: seq, Arg: arg})
	}
}

// pktKind maps a wire packet type to its send-side trace kind.
func pktKind(t PktType) trace.Kind {
	switch t {
	case PktEager:
		return trace.SendEager
	case PktRTS:
		return trace.SendRTS
	case PktCTS:
		return trace.SendCTS
	case PktFin:
		return trace.SendFin
	case PktCredit:
		return trace.SendECM
	case PktRingSync:
		return trace.SendRingSync
	}
	return trace.Kind(0)
}

// Pool returns the device's pre-pinned wire-buffer pool. The MPI layer
// stages unexpected eager payloads through it so matching a late receive
// recycles the staging buffer instead of leaving garbage.
func (d *Device) Pool() *mem.BufPool { return d.pool }

// ChargeCopy charges the virtual clock for an n-byte host copy.
func (d *Device) ChargeCopy(p *sim.Proc, n int) { p.Sleep(copyTime(n)) }

// connect returns the endpoint set toward peer, establishing it on
// demand. Establishment hands the fresh set straight back.
func (d *Device) connect(p *sim.Proc, peer int) []*conn {
	if peer == d.rank || peer < 0 || peer >= d.size {
		panic(fmt.Sprintf("chdev: rank %d has no connection to %d", d.rank, peer))
	}
	set := d.eps(peer)
	if set == nil {
		if !d.cfg.OnDemand {
			panic("chdev: devices not wired")
		}
		p.Sleep(connSetup)
		// Both ends — or two logical threads of this rank — can decide
		// to connect within the same setup window; whichever wakes first
		// establishes the whole set, the others reuse it. Without the
		// re-check the loser would wire a second QP set over the first
		// (and double-register the endpoints' metrics).
		if set = d.eps(peer); set == nil {
			set = establish(d, d.peers[peer])
			d.setups++
		}
	}
	return set
}

// conn resolves the endpoint the current logical thread should use
// toward peer, establishing the set on demand.
func (d *Device) conn(p *sim.Proc, peer int) *conn {
	return d.selectEP(d.connect(p, peer))
}

// prepost posts n receive descriptors on c. A descriptor names the pool,
// not a buffer: the bytes are taken when a message lands in it and go
// back when the packet has been processed (pcPktTail), so what is posted
// is a count — the one the schemes and Stats account for — and an idle
// connection holds no buffer.
func (d *Device) prepost(c *conn, n int) {
	for i := 0; i < n; i++ {
		c.qp.PostRecvFrom(0, d.pool)
	}
}

// track enters a work request about to be posted on c in the books: the
// occupancy it makes and the message total. The id it is posted under
// names what its completion retires (retireSend): 0 for a pool buffer,
// which the completion hands back, or the number of the rendezvous whose
// payload it moves.
func (d *Device) track(c *conn) {
	c.noteOut()
	c.vc.CountMsg()
}

// postPacket posts an encoded packet of n bytes from a pool buffer. Every
// outgoing packet carries the VC's piggybacked ring head, stamped
// post-encode so even backlogged or pre-built packets return the freshest
// value.
func (d *Device) postPacket(c *conn, buf []byte, n int) {
	stampRingHead(buf, c.vc.PiggybackHead())
	d.track(c)
	c.qp.PostSend(0, buf[:n])
	c.lastSend = d.eng.Now()
	d.tr(pktKind(PktType(buf[0])), int(c.peer), packetSeq(buf), int64(n))
}

// Send transmits data to rank dst with the given tag. token is handed back
// through Handler.SendDone when the send completes in the MPI sense.
// blocking marks MPI_Send-style calls, which may wait where a non-blocking
// send queues: a credit-starved small message demotes to a rendezvous
// handshake, one facing a full ring parks until a slot frees up.
func (d *Device) Send(p *sim.Proc, dst, tag int, comm uint16, data []byte, token any, blocking bool) {
	// Every MPI call enters the progress engine first (as MPICH's ADI
	// does): arrivals processed here return piggybacked credits, which
	// keeps symmetric patterns flowing eagerly even at pre-post 1.
	d.ProgressOnce(p)
	c := d.conn(p, dst)
	p.Sleep(swSend)
	if len(data) > d.eagerMax {
		d.sendRndvPath(p, c, tag, comm, data, token)
		return
	}
	switch d.admitEager(p, c, len(data), blocking) {
	case core.ActionSend:
		e := d.encodeEager(p, c, tag, comm, data, false)
		d.prov.postEager(c, e.buf, e.n)
		d.handler.SendDone(token)
	case core.ActionDemote:
		d.tr(trace.Demoted, int(c.peer), c.seqOut+1, int64(len(data)))
		d.startRndv(p, c, tag, comm, data, token, true)
	case core.ActionBacklog:
		// The user buffer is copied out and immediately reusable, so
		// SendDone fires now.
		d.tr(trace.Backlogged, int(c.peer), c.seqOut+1, int64(len(data)))
		c.backlog.Push(d.encodeEager(p, c, tag, comm, data, true))
		d.handler.SendDone(token)
	}
}

// admitEager asks c's VC what to do with an n-byte eager send. On
// ActionWait the rank's own process parks on the progress engine —
// backpressure, never a handler — until the channel reopens, then asks
// again without the option to wait. Whatever the answer, the message
// takes the end's next number.
func (d *Device) admitEager(p *sim.Proc, c *conn, n int, blocking bool) core.Action {
	a := c.vc.DecideEager(blocking)
	if a == core.ActionWait {
		d.tr(trace.Backlogged, int(c.peer), c.seqOut+1, int64(n))
		d.WaitProgress(p, c.vc.SendReady)
		a = c.vc.DecideEager(false)
	}
	return a
}

// SendSync transmits data with synchronous-mode semantics (MPI_Ssend):
// the rendezvous protocol is used regardless of size, so the send only
// completes once the receiver has matched it.
func (d *Device) SendSync(p *sim.Proc, dst, tag int, comm uint16, data []byte, token any) {
	d.ProgressOnce(p)
	c := d.conn(p, dst)
	p.Sleep(swSend)
	d.sendRndvPath(p, c, tag, comm, data, token)
}

// encodeEager numbers an eager data packet, builds it in a pool buffer of
// the packet's size and charges the header+payload copy. A direct send
// (starved false) carries the owed credits now; a backlogged one is
// flagged as the dynamic scheme's growth feedback and takes its piggyback
// at drain time. The flags mean something to a receiver whose scheme has
// credits and are ignored by the others.
func (d *Device) encodeEager(p *sim.Proc, c *conn, tag int, comm uint16, data []byte, starved bool) backlogEntry {
	buf := d.pool.GetN(HeaderSize + len(data))
	c.seqOut++
	h := Header{
		Type:  PktEager,
		Flags: FlagCredit,
		Comm:  comm,
		Src:   int32(d.rank),
		Tag:   int32(tag),
		Len:   uint32(len(data)),
		Seq:   c.seqOut,
	}
	if starved {
		h.Flags |= FlagStarved
	} else {
		h.Piggyback = uint32(c.vc.TakePiggyback())
	}
	h.Encode(buf)
	copy(buf[HeaderSize:], data)
	p.Sleep(copyTime(HeaderSize + len(data)))
	return backlogEntry{buf: buf, n: HeaderSize + len(data)}
}

// drainAdvance advances c's backlog as far as the VC lets it without
// charging virtual time: eager entries post inline (their payload copy
// was paid at enqueue), while an RTS entry is prepared and returned for
// the progress machine (pcDrain) to charge the header copy and post. It
// reports whether it accomplished anything beyond the returned RTS.
// Only a pass drains: a backlog reopens only where an arrival returns a
// credit or a ring head (pcPktCredits), and no pass runs between a
// send's decision to backlog and its push.
func (d *Device) drainAdvance(c *conn) ([]byte, bool) {
	did := false
	for c.backlog.Len() > 0 {
		e := *c.backlog.At(0)
		if e.rndv != nil {
			consumed, ok := c.vc.DrainRTS()
			if !ok {
				return nil, did
			}
			c.backlog.Pop()
			d.tr(trace.Drained, int(c.peer), e.rndv.seq, 0)
			return d.prepRTS(c, e.rndv, consumed), did
		}
		if !c.vc.CanDrainBacklog() {
			return nil, did
		}
		c.backlog.Pop()
		d.tr(trace.Drained, int(c.peer), packetSeq(e.buf), int64(e.n))
		stampPiggyback(e.buf, uint32(c.vc.TakePiggyback()))
		d.prov.postEager(c, e.buf, e.n)
		did = true
	}
	return nil, did
}

// postCtrl encodes and posts a header-only control packet from event
// context: no copy charge, no process time.
func (d *Device) postCtrl(c *conn, h Header) {
	buf := d.pool.GetN(HeaderSize)
	h.Encode(buf)
	d.postPacket(c, buf, HeaderSize)
}

// AllocMem returns n zeroed bytes for communication (MPI_Alloc_mem): a
// block FreeMem returned, or a fresh one. It charges no virtual time.
func (d *Device) AllocMem(n int) []byte { return d.blocks.Get(n) }

// FreeMem ends the block buf's life as a communication buffer
// (MPI_Free_mem): every registration inside it is deregistered, and its
// bytes go back to AllocMem. Nothing may still be moving into or out of
// it — under ibdebug a live rendezvous over any of its bytes panics here.
// It charges no virtual time: no deregistration is charged.
func (d *Device) FreeMem(buf []byte) {
	d.debugFreeMem(buf)
	d.regs.Invalidate(buf)
	d.blocks.Put(buf)
}

// debugFreeMem asserts, in an ibdebug build, that no rendezvous of this
// device still uses a byte of the block being freed: an outgoing one
// before its FIN (its source region), an accepted incoming one before its
// data is in (its destination).
func (d *Device) debugFreeMem(buf []byte) {
	if !debug.Enabled {
		return
	}
	keys := make([]uint64, 0, len(d.sendRndv))
	for key := range d.sendRndv {
		keys = append(keys, key)
	}
	slices.Sort(keys)
	for _, key := range keys {
		out := d.sendRndv[key]
		debug.Assert(!mem.Overlaps(buf, out.data),
			"chdev: rank %d: FreeMem of a block rendezvous %d is still sending from", d.rank, out.seq)
	}
	keys = keys[:0]
	for key := range d.recvRndv {
		keys = append(keys, key)
	}
	slices.Sort(keys)
	for _, key := range keys {
		r := d.recvRndv[key]
		how := "writing into"
		if r.pulled {
			how = "reading into"
		}
		debug.Assert(!mem.Overlaps(buf, r.buf),
			"chdev: rank %d: FreeMem of a block rendezvous %d from rank %d is still %s", d.rank, r.seq, r.Src, how)
	}
}

// ProgressOnce runs one pass of the progress engine: drain the
// completion queue and the backlogs its arrivals reopen.
// It reports whether it accomplished anything. The pass runs on the
// bound progress machine; the calling process parks only if the pass
// charges virtual time.
func (d *Device) ProgressOnce(p *sim.Proc) bool {
	return d.progressSession(p, nil)
}

// debugCheckPass runs at the end of every progress pass under the
// per-run Debug switch or an ibdebug build, and compiles away otherwise.
// It checks every live connection (debugCheckConn) and the pass-end law:
// no backlog head is drainable. A backlog reopens only where an arrival
// returns a credit or a ring head, and the pass drains it right there
// (pcPktCredits), so a head the VC would let go now is a drain that was
// missed. The drain's own gates answer, asked of a copy of the VC.
func (d *Device) debugCheckPass() {
	if !debug.Enabled && !d.cfg.Debug {
		return
	}
	for _, c := range d.live {
		d.debugCheckConn(c)
		if c.backlog.Len() == 0 {
			continue
		}
		vc := c.vc
		ok := false
		if c.backlog.At(0).rndv != nil {
			_, ok = vc.DrainRTS()
		} else {
			ok = vc.CanDrainBacklog()
		}
		if ok {
			panic(fmt.Sprintf("chdev: rank %d: peer %d ep %d ends a pass with a drainable backlog of %d",
				d.rank, c.peer, c.ep, c.backlog.Len()))
		}
	}
}

// debugCheckSeq is the in-order law, checked on every arrival under the
// per-run Debug switch or in an ibdebug build: each data packet (eager or
// RTS) that reaches end c carries exactly the number after the last one.
// The sending end numbers them as it creates them, RC delivers in order and
// the backlog is a FIFO, so a gap or a repeat is a message that overtook
// another — MPI's non-overtaking rule broken on the wire.
func (d *Device) debugCheckSeq(c *conn, h *Header) {
	if !debug.Enabled && !d.cfg.Debug || h.Type != PktEager && h.Type != PktRTS {
		return
	}
	if want := c.seqIn + 1; h.Seq != want {
		panic(fmt.Sprintf("chdev: rank %d: peer %d ep %d: %v numbered %d arrived, want %d",
			d.rank, c.peer, c.ep, h.Type, h.Seq, want))
	}
	c.seqIn = h.Seq
}

// debugCheckConn validates a connection's books at a pass end, where the
// CQ is empty: the VC's own invariants, agreement between the queued
// backlog entries and the VC's backlog counter, which the backlog's
// pushes and pops and the VC's decision calls must keep in lockstep, and
// between the requests the end counts outstanding and those its QP holds
// — a completion lost or retired twice shows here.
func (d *Device) debugCheckConn(c *conn) {
	c.vc.CheckInvariants()
	if got, want := c.backlog.Len(), c.vc.BacklogLen(); got != want {
		panic(fmt.Sprintf("chdev: rank %d peer %d: backlog queue has %d entries but VC counter says %d",
			d.rank, c.peer, got, want))
	}
	if got, want := int(c.occ), c.qp.QueuedSends(); got != want {
		panic(fmt.Sprintf("chdev: rank %d peer %d ep %d: %d work requests outstanding but the QP holds %d",
			d.rank, c.peer, c.ep, got, want))
	}
}

// WaitProgress runs the progress engine until done() holds, blocking on
// the armed completion queue when there is nothing to do. The wait loop
// runs entirely on the bound progress machine — CQ notifications wake
// the machine, not a goroutine — and the calling process parks at most
// once, resumed inline when done() holds.
func (d *Device) WaitProgress(p *sim.Proc, done func() bool) {
	for !done() {
		d.progressSession(p, done)
	}
}

// Quiescent reports whether the device has no outstanding protocol work:
// nothing backlogged, no rendezvous in flight, every posted send retired.
// MPI finalize blocks until the device quiesces so that sends buffered in
// the backlog reach the wire even if the application makes no further MPI
// calls.
func (d *Device) Quiescent() bool {
	if len(d.sendRndv) > 0 {
		return false
	}
	for _, c := range d.live {
		if c.occ > 0 || c.backlog.Len() > 0 {
			return false
		}
	}
	return true
}

// Poke runs one progress pass and flushes credits; used by periodic
// progress points that must not block (e.g. MPI_Test).
func (d *Device) Poke(p *sim.Proc) {
	d.ProgressOnce(p)
	d.flushCredits()
}

// PendingCompletions reports completions waiting on the device's CQ
// (at the end of a settled run the audit expects none).
func (d *Device) PendingCompletions() int { return d.cq.Len() }

// retireSend dispatches a send-side completion. The completion names its
// QP, the QP its connection, and the work request's id what it retires:
// id 0 a pool buffer, which comes back as the completion's Buf; any other
// id the number of the rendezvous whose payload moved — an RDMA write's,
// in sendRndv, whose FIN goes out and whose send finishes, or an RDMA
// read's, in recvRndv, pulled into the accepted buffer, whose FIN goes
// out and whose receive finishes. Runs in event context; charges no time.
func (d *Device) retireSend(wc ib.WC) {
	c, ok := wc.QP.Owner().(*conn)
	if !ok {
		panic("chdev: send completion on unknown QP")
	}
	if wc.Status == ib.StatusRNRRetryExceeded {
		d.onRetryExhausted(c)
		return
	}
	if wc.Status != ib.StatusSuccess {
		panic(fmt.Sprintf("chdev: transport error %v on rank %d", wc.Status, d.rank))
	}
	c.noteRetired()
	switch {
	case wc.WRID == 0:
		d.pool.Put(wc.Buf)
	case wc.Opcode == ib.OpWriteComplete:
		out := d.sendRndvOn(c, uint32(wc.WRID), "write completion")
		d.sendFin(c, out.seq)
		d.finishSend(c, out)
	case wc.Opcode == ib.OpReadComplete:
		r := d.takeRecvRndv(c, uint32(wc.WRID), "read completion")
		d.sendFin(c, r.seq)
		d.finishRecv(r)
	default:
		panic(fmt.Sprintf("chdev: rank %d -> %d: %v completion under rendezvous id %d", d.rank, c.peer, wc.Opcode, wc.WRID))
	}
}

// Stats aggregates the device's counters: its own, one Stats per live
// end, then what its provisioning shape reports.
func (d *Device) Stats() Stats {
	s := Stats{Rank: d.rank, RegHits: d.regs.Hits(), RegMisses: d.regs.Misses(),
		StickySels: d.stickySels, ConnSetups: d.setups}
	for _, c := range d.live {
		s.Add(c.stats())
	}
	return d.prov.stats(s)
}

// stats reports one live end's counters: its VC's, its QP's and its
// occupancy mark. Its pre-post is both its share of SumPosted and its
// mark (it never shrinks); a shape whose receive memory is not per
// connection replaces the sum (recvProvisioner.stats).
func (c *conn) stats() Stats {
	vs, qs := c.vc.Stats(), c.qp.Stats()
	return Stats{
		Conns:        1,
		MsgsSent:     vs.MsgsSent,
		EagerSent:    vs.EagerSent,
		Demoted:      vs.Demoted,
		Backlogged:   vs.Backlogged,
		ECMsSent:     vs.ECMsSent,
		GrowthEvents: vs.GrowthEvents,
		MaxPosted:    c.vc.Posted(),
		SumPosted:    c.vc.Posted(),
		RNRNaks:      qs.RNRNaks,
		Retransmits:  qs.Retransmits,
		WastedBytes:  qs.WastedBytes,
		RNRExhausted: qs.RNRExhausted,
		OccupancyHWM: int(c.occHWM),
	}
}

package chdev

import (
	"cmp"
	"fmt"
	"slices"
	"unsafe"

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

// RndvIn is an incoming rendezvous transfer in progress. The device takes
// it from its pool at the RTS and returns it after DeliverRndvDone
// (finishRecv); ids are never reused, so a recycled object is never
// reachable through an old id.
type RndvIn struct {
	Src, Tag int
	Comm     uint16
	Len      int
	UserData any // free for the MPI layer (the matched request)

	conn      *conn
	senderReq uint64
	senderMR  uint32 // source region id from the RTS, for a receiver that pulls
	myReq     uint64
	accepted  bool
	pulled    bool // the receiver reads the payload (the ring shape's RDMA read)
	buf       []byte
}

// rndvOut is an outgoing rendezvous transfer in progress, recycled through
// the device's pool from newRndvOut to finishSend.
type rndvOut struct {
	id      uint64
	tag     int
	comm    uint16
	starved bool
	conn    *conn
	data    []byte
	mr      *ib.MR // registered source region; the RTS carries its id
	token   any
	peerReq uint64
	start   sim.Time // when the rendezvous began, for the latency histogram
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
// owner and bound events, the live list, the peer's write target) relies
// on it staying where it is.
type conn struct {
	peer    int
	ep      int // index within the peer's endpoint set
	qp      ib.QP
	vc      core.VC
	backlog store.Fifo[backlogEntry]

	// occ counts the work requests posted on qp and not yet retired —
	// what qp holds whenever the CQ is empty (debugCheckConn) — and occHWM
	// is its high-water mark, the per-endpoint occupancy the contention
	// benchmark plots. Guarded by fclint's creditmut: mutation only
	// through noteOut and noteRetired. A completion names what it retires
	// (retireSend), so the end keeps no record per request.
	occ, occHWM int
	// reissues counts the re-issues of the request heading qp: a QP
	// completes in post order and fails only its head, so the count is
	// that request's until a success resets it.
	reissues int

	// Explicit-credit-message silence gate state.
	lastSend sim.Time   // last outgoing traffic on this connection
	ecmTimer *sim.Timer // deferred ECM when the gate is still closed

	// Landing regions, the provisioner's to set and use (provision.go):
	// where the peer writes this end's eager arrivals, and this end's
	// write target at the peer. Unset for a shape whose arrivals all land
	// in receive descriptors.
	ringMR ib.MR
	peerMR *ib.MR
}

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
	RNRExhausted   uint64 // transport retry budgets exhausted
	Reissues       uint64 // frozen streams re-issued after degradation
	ECMsDropped    uint64 // explicit credit messages lost before the wire
	ECMsDuplicated uint64 // spurious duplicate ECMs injected

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
	s.Reissues += o.Reissues
	s.ECMsDropped += o.ECMsDropped
	s.ECMsDuplicated += o.ECMsDuplicated
	s.OccupancyHWM = max(s.OccupancyHWM, o.OccupancyHWM)
	s.StickySels += o.StickySels
	s.ConnSetups += o.ConnSetups
}

// Device is one rank's channel device.
type Device struct {
	eng     *sim.Engine
	hca     *ib.HCA
	cq      *ib.CQ
	cfg     *Config
	params  core.Params
	rank    int
	size    int
	handler Handler

	pool   *mem.BufPool
	regs   *mem.RegCache
	blocks mem.Blocks // AllocMem's free lists
	// live is the connection table: every established endpoint in
	// (peer, ep) order, so a peer's endpoint set is epN consecutive entries
	// (eps). The send-side lookup, credit flush, stats and audit walk it,
	// so the device's cost follows the connections that exist, not the
	// job size. addConn is its only writer.
	live  []*conn
	peers []*Device
	ends  *endSlab // the world's, shared by every device Wire connects

	// epN is the endpoint-set size (max(1, Config.Endpoints)); curTID
	// is the logical thread the next send is issued from, set by
	// BindThread. Both feed the endpoint-selection seam, which counts its
	// selections over sets of more than one in stickySels.
	epN        int
	curTID     int
	stickySels uint64

	// prov owns the transport shape (see recvProvisioner); eagerMax is the
	// largest payload its eager channel carries.
	prov     recvProvisioner
	eagerMax int

	rndvSeq uint64
	// Rendezvous in flight, keyed by rndvSeq ids (unique per device, so
	// one table serves every connection; each entry names its conn). The
	// entries live in the two pools: a message in flight allocates neither.
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
	d := &Device{
		eng:      eng,
		hca:      hca,
		cq:       hca.NewCQ(),
		cfg:      &cfg,
		params:   params,
		rank:     rank,
		size:     size,
		handler:  h,
		pool:     mem.NewBufPool(bufSize),
		regs:     mem.NewRegCache(hca),
		sendRndv: make(map[uint64]*rndvOut),
		recvRndv: make(map[uint64]*RndvIn),
	}
	d.epN = 1
	if cfg.Endpoints > 1 {
		d.epN = cfg.Endpoints
	}
	d.gate = sim.NewGate(eng)
	d.progress.d = d
	d.cq.SetNotify(&d.progress)
	if cfg.Metrics != nil {
		d.rndvHist = cfg.Metrics.Histogram("chdev_rndv_ns", metrics.TimeBuckets, metrics.RankLabel(rank))
	}
	d.prov, d.eagerMax = newProvisioner(d)
	d.registerMetrics()
	return d
}

// registerMetrics folds the device's own gauges into the configured
// registry as reader closures; without a registry nothing is built — no
// closure, no label — as for a QP's and a VC's series.
func (d *Device) registerMetrics() {
	r := d.cfg.Metrics
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
	if d.epN > 1 {
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

// BindThread declares the logical worker thread issuing the rank's
// subsequent sends; the sticky selection policy pins each thread to
// one endpoint of a peer's set. Threads are simulated (an MPI rank
// runs on one process), so no synchronization is involved.
func (d *Device) BindThread(tid int) {
	if tid < 0 {
		panic(fmt.Sprintf("chdev: negative logical thread id %d", tid))
	}
	d.curTID = tid
}

// addConn enters a freshly established endpoint into the live list at
// its (peer, ep) position; static wiring only ever appends.
func (d *Device) addConn(c *conn) {
	key := func(c *conn) int { return c.peer*d.epN + c.ep }
	i, _ := slices.BinarySearchFunc(d.live, key(c), func(e *conn, k int) int {
		return cmp.Compare(key(e), k)
	})
	d.live = slices.Insert(d.live, i, c)
}

// eps returns the endpoint set toward peer — epN consecutive entries of
// the live list — or nil if the peer is not connected. It is the send
// path's lookup: a binary search over what is established, where a table
// indexed by rank cost every device the job size.
func (d *Device) eps(peer int) []*conn {
	i, ok := slices.BinarySearchFunc(d.live, peer, func(c *conn, peer int) int {
		return cmp.Compare(c.peer, peer)
	})
	if !ok {
		return nil
	}
	return d.live[i : i+d.epN]
}

// epAt returns endpoint ep of the set toward peer, or nil if the peer
// is not connected.
func (d *Device) epAt(peer, ep int) *conn {
	if set := d.eps(peer); set != nil {
		return set[ep]
	}
	return nil
}

// selectEP multiplexes the current logical thread over an endpoint set:
// each thread is pinned to one endpoint (Zambre et al.: an endpoint per
// thread), which keeps MPI's per-pair non-overtaking order for traffic
// within a thread, and the pins are counted. A size-1 set short-circuits
// without touching the counter, keeping the single-endpoint device
// byte-identical to the pre-endpoint one.
func (d *Device) selectEP(eps []*conn) *conn {
	if d.epN == 1 {
		return eps[0]
	}
	d.stickySels++
	return eps[d.curTID%len(eps)]
}

// Wire connects a full set of devices: every pair eagerly unless OnDemand
// is configured, in which case connections appear at first use — and so
// does the buffer pool's memory. A statically wired device provisions its
// pool's first slab here with its connections, so that the job's first
// messages land in set-up memory (mem.BufPool.Warm).
func Wire(devs []*Device) {
	n := len(devs)
	ends := &endSlab{left: n * (n - 1) * devs[0].epN}
	for _, d := range devs {
		d.peers, d.ends = devs, ends
	}
	if devs[0].cfg.OnDemand {
		return
	}
	for _, d := range devs {
		d.pool.Warm()
	}
	for i := range devs {
		for j := i + 1; j < len(devs); j++ {
			establish(devs[i], devs[j])
		}
	}
}

// endSlabBytes is how much host memory a world takes at a time for its
// connection ends: the largest small-object size class, so a slab is one
// allocation of ends with no size-class slack beyond a part of one end.
const endSlabBytes = 32 << 10

// endSlab carves the connection ends of one world, as HCA.commit carves
// ring slots from pages: a pair's two endpoint sets are adjacent in it, a
// slab holds whole pair-sets, and no end is handed out twice or moved.
// A new slab holds what the world can still establish, if that is less
// than endSlabBytes' worth, so a statically wired world gets exactly the
// ends it uses and any world leaves at most one slab partly unused. The
// devices of a world share it; the engine serializes them.
type endSlab struct {
	free []conn // the rest of the current slab
	left int    // ends the world has yet to establish
}

// take returns n adjacent fresh ends, n being one pair's two sets.
func (s *endSlab) take(n int) []conn {
	if n > s.left {
		panic(fmt.Sprintf("chdev: establishing %d more ends in a world that has %d left", n, s.left))
	}
	if len(s.free) < n {
		per := max(n, int(endSlabBytes/unsafe.Sizeof(conn{}))/n*n)
		s.free = make([]conn, min(per, s.left))
	}
	set := s.free[:n:n]
	s.free = s.free[n:]
	s.left -= n
	return set
}

// establish creates the endpoint set — Config.Endpoints QP pairs and
// virtual channels — between two devices and returns a's. The two sets
// are 2·epN adjacent ends of the world's slab, a's then b's: the conns
// hold their QP, VC and landing region by value and are pointed into
// from all sides, and the slab never moves them. All QPs
// are made first (a's then b's per endpoint: queue pair numbers follow)
// and connected in index order, then each endpoint's channel state is
// built — at set size 1 the sequence is exactly the pre-endpoint
// establishment. Each end's provisioner sets up its receive resources (a
// before b: regions are numbered in reservation order, and two ranks may
// share an HCA), then adopts what set-up hands over from the other.
func establish(a, b *Device) []*conn {
	if a.epN != b.epN {
		panic(fmt.Sprintf("chdev: endpoint-set size mismatch: rank %d has %d, rank %d has %d",
			a.rank, a.epN, b.rank, b.epN))
	}
	pair := a.ends.take(2 * a.epN)
	ea, eb := pair[:a.epN:a.epN], pair[a.epN:]
	for ep := range ea {
		a.prov.initQP(&ea[ep].qp)
		b.prov.initQP(&eb[ep].qp)
	}
	for ep := range ea {
		ib.Connect(&ea[ep].qp, &eb[ep].qp)
	}
	for ep := range ea {
		ca, cb := &ea[ep], &eb[ep]
		a.initConn(ca, b.rank, ep)
		b.initConn(cb, a.rank, ep)
		a.prov.provisionConn(ca)
		b.prov.provisionConn(cb)
		a.prov.adopt(ca, cb)
		b.prov.adopt(cb, ca)
	}
	return a.eps(b.rank)
}

// initConn builds endpoint ep toward peer in c, whose QP is connected,
// and enters it into the device's books.
func (d *Device) initConn(c *conn, peer, ep int) {
	c.peer, c.ep = peer, ep
	c.vc.Init(&d.params)
	d.addConn(c)
	// A completion names its QP, and the QP its connection.
	c.qp.SetOwner(c)
	// Each direction of each endpoint is a distinct metric series; with
	// on-demand wiring this runs mid-job and the series align via the
	// registry's first-sample offsets.
	c.vc.RegisterMetrics(d.cfg.Metrics, d.rank, peer, ep)
}

// tr records a trace event if tracing is enabled.
func (d *Device) tr(kind trace.Kind, peer int, arg int64) {
	if d.cfg.Tracer != nil {
		d.cfg.Tracer.Add(trace.Event{T: d.eng.Now(), Rank: d.rank, Peer: peer, Kind: kind, Arg: arg})
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

// Rank returns the device's rank.
func (d *Device) Rank() int { return d.rank }

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
// which the completion hands back, or the rendezvous whose payload it
// moves.
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
	d.tr(pktKind(PktType(buf[0])), c.peer, int64(n))
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
		d.tr(trace.Demoted, c.peer, int64(len(data)))
		d.startRndv(p, c, tag, comm, data, token, true)
	case core.ActionBacklog:
		// The user buffer is copied out and immediately reusable, so
		// SendDone fires now.
		d.tr(trace.Backlogged, c.peer, int64(len(data)))
		c.backlog.Push(d.encodeEager(p, c, tag, comm, data, true))
		d.handler.SendDone(token)
	}
}

// admitEager asks c's VC what to do with an n-byte eager send. On
// ActionWait the rank's own process parks on the progress engine —
// backpressure, never a handler — until the channel reopens, then asks
// again without the option to wait.
func (d *Device) admitEager(p *sim.Proc, c *conn, n int, blocking bool) core.Action {
	a := c.vc.DecideEager(blocking)
	if a == core.ActionWait {
		d.tr(trace.Backlogged, c.peer, int64(n))
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

// sendRndvPath routes a message through the rendezvous protocol. The RTS
// occupies a receiver buffer like any other send, so under user-level
// schemes it consumes a credit; at zero credits (or behind a non-empty
// backlog, preserving matching order) it waits in the backlog, which
// throttles rendezvous floods to the pre-post depth — the self-regulation
// the paper observes in Figures 7-8.
func (d *Device) sendRndvPath(p *sim.Proc, c *conn, tag int, comm uint16, data []byte, token any) {
	out := d.newRndvOut(p, c, tag, comm, data, token, false)
	consumed, queue := c.vc.DecideRTS()
	if queue {
		out.starved = true
		c.backlog.Push(backlogEntry{rndv: out})
		return
	}
	d.sendRTS(p, c, out, consumed)
}

// encodeEager builds an eager data packet in a pool buffer of the
// packet's size and charges the header+payload copy. A direct send
// (starved false) carries the owed credits now; a backlogged one is
// flagged as the dynamic scheme's growth feedback and takes its piggyback
// at drain time. The flags mean something to a receiver whose scheme has
// credits and are ignored by the others.
func (d *Device) encodeEager(p *sim.Proc, c *conn, tag int, comm uint16, data []byte, starved bool) backlogEntry {
	buf := d.pool.GetN(HeaderSize + len(data))
	h := Header{
		Type:  PktEager,
		Flags: FlagCredit,
		Comm:  comm,
		Src:   int32(d.rank),
		Tag:   int32(tag),
		Len:   uint32(len(data)),
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
			d.tr(trace.Drained, c.peer, 0)
			return d.prepRTS(c, e.rndv, consumed), did
		}
		if !c.vc.CanDrainBacklog() {
			return nil, did
		}
		c.backlog.Pop()
		d.tr(trace.Drained, c.peer, int64(e.n))
		stampPiggyback(e.buf, uint32(c.vc.TakePiggyback()))
		d.prov.postEager(c, e.buf, e.n)
		did = true
	}
	return nil, did
}

// newRndvOut registers the source buffer (pin-down cached) and creates the
// outgoing rendezvous state.
func (d *Device) newRndvOut(p *sim.Proc, c *conn, tag int, comm uint16, data []byte, token any, starved bool) *rndvOut {
	d.rndvSeq++
	out := d.outs.Get()
	*out = rndvOut{id: d.rndvSeq, tag: tag, comm: comm, starved: starved, conn: c,
		data: data, token: token, start: d.eng.Now()}
	d.sendRndv[out.id] = out
	if len(data) > 0 {
		mr, cost := d.regs.Register(data)
		out.mr = mr
		p.Sleep(cost)
	}
	return out
}

// startRndv begins a rendezvous for data (used for large messages and for
// credit-starved demoted small ones).
func (d *Device) startRndv(p *sim.Proc, c *conn, tag int, comm uint16, data []byte, token any, starved bool) {
	out := d.newRndvOut(p, c, tag, comm, data, token, starved)
	d.sendRTS(p, c, out, false)
}

// sendRTS posts the Rendezvous Start control message from process
// context: prepare, charge the header copy, post.
func (d *Device) sendRTS(p *sim.Proc, c *conn, out *rndvOut, consumed bool) {
	buf := d.prepRTS(c, out, consumed)
	p.Sleep(copyTime(HeaderSize))
	d.postPacket(c, buf, HeaderSize)
}

// prepRTS encodes the Rendezvous Start control message. consumed records
// whether a user-level credit backs it; credit-less RTS (a demoted small
// send, or the hardware scheme) is optimistic: InfiniBand's end-to-end
// flow control is the backstop. The RTS names the registered source
// region, so a receiver that pulls needs no CTS round. The caller charges
// the header copy before posting the returned packet.
func (d *Device) prepRTS(c *conn, out *rndvOut, consumed bool) []byte {
	buf := d.pool.GetN(HeaderSize)
	flags := uint8(0)
	if out.starved {
		flags |= FlagStarved
	}
	if consumed {
		flags |= FlagCredit
	}
	h := Header{
		Type:      PktRTS,
		Flags:     flags,
		Comm:      out.comm,
		Src:       int32(d.rank),
		Tag:       int32(out.tag),
		Len:       uint32(len(out.data)),
		Piggyback: uint32(c.vc.TakePiggyback()),
		ReqID:     out.id,
	}
	if out.mr != nil {
		h.MRID = uint32(out.mr.ID())
	}
	h.Encode(buf)
	return buf
}

// AcceptRndv supplies the receive buffer for an announced rendezvous and
// moves the transfer along: the CTS reply carrying the registered
// destination, or whatever the transport shape does instead.
// Process-context path: the MPI layer calls it when a receive posted after
// the RTS finally matches (the in-band accept runs on the progress
// machine, pcPktBody onwards, in the same three steps).
func (d *Device) AcceptRndv(p *sim.Proc, r *RndvIn, buf []byte) {
	d.debugLiveIn(r)
	h, cost, reg := d.acceptStart(r, buf)
	if reg {
		p.Sleep(cost)
	}
	if pkt := d.prov.accepted(r, h); pkt != nil {
		p.Sleep(copyTime(HeaderSize))
		d.postPacket(r.conn, pkt, HeaderSize)
	}
}

// acceptStart validates and records the receive buffer of an announced
// rendezvous, registers it (pin-down cached) and lets the provisioner
// decide what the reply needs before the registration is charged. reg
// reports whether a registration charge of `cost` is due (zero-length
// transfers register nothing); the caller charges it, then hands the
// header to the provisioner's accepted.
func (d *Device) acceptStart(r *RndvIn, buf []byte) (h Header, cost sim.Time, reg bool) {
	if r.accepted {
		panic("chdev: rendezvous accepted twice")
	}
	if len(buf) < r.Len {
		panic(fmt.Sprintf("chdev: rendezvous buffer %d bytes for %d-byte message", len(buf), r.Len))
	}
	r.accepted = true
	r.buf = buf
	var mr *ib.MR
	if reg = r.Len > 0; reg {
		mr, cost = d.regs.Register(buf[:r.Len])
	}
	return d.prov.accept(r, mr), cost, reg
}

// postCtrl encodes and posts a header-only control packet from event
// context: no copy charge, no process time.
func (d *Device) postCtrl(c *conn, h Header) {
	buf := d.pool.GetN(HeaderSize)
	h.Encode(buf)
	d.postPacket(c, buf, HeaderSize)
}

// sendFin posts the rendezvous completion control message. It runs in
// event context (the FIN follows the RDMA write's completion) and
// charges no process time.
func (d *Device) sendFin(c *conn, peerReq uint64) {
	d.postCtrl(c, Header{
		Type:      PktFin,
		Src:       int32(d.rank),
		Piggyback: uint32(c.vc.TakePiggyback()),
		ReqID:     peerReq,
	})
}

// sendRndvOn returns c's outgoing rendezvous id, which a packet or a
// completion (what) names; an unknown id, or one of another connection,
// panics.
func (d *Device) sendRndvOn(c *conn, id uint64, what string) *rndvOut {
	out, ok := d.sendRndv[id]
	if !ok || out.conn != c {
		panic(fmt.Sprintf("chdev: rank %d -> %d: %s for unknown rendezvous %d", d.rank, c.peer, what, id))
	}
	d.debugLiveOut(out, id)
	return out
}

// takeRecvRndv takes c's accepted rendezvous id out of recvRndv — its data
// is in, as a FIN or a read completion (what) says; an unknown id, or one
// of another connection, panics.
func (d *Device) takeRecvRndv(c *conn, id uint64, what string) *RndvIn {
	r, ok := d.recvRndv[id]
	if !ok || r.conn != c {
		panic(fmt.Sprintf("chdev: rank %d -> %d: %s for unknown rendezvous %d", d.rank, c.peer, what, id))
	}
	debug.Assert(r.myReq == id, "chdev: rank %d: rendezvous table entry %d holds a recycled object (now %d)",
		d.rank, id, r.myReq)
	delete(d.recvRndv, id)
	return r
}

// finishSend completes an outgoing rendezvous: the peer has the payload,
// the user buffer is reusable, and the state goes back to the pool — after
// the upcall, with its references dropped.
func (d *Device) finishSend(out *rndvOut) {
	d.debugLiveOut(out, out.id)
	if d.sendRndv[out.id] != out {
		panic(fmt.Sprintf("chdev: rank %d: finishing unknown rendezvous %d", d.rank, out.id))
	}
	delete(d.sendRndv, out.id)
	d.rndvHist.ObserveTime(d.eng.Now() - out.start)
	d.handler.SendDone(out.token)
	out.conn, out.data, out.mr, out.token = nil, nil, nil, nil
	d.outs.Put(out)
}

// finishRecv completes an incoming rendezvous: the payload is in the
// buffer the handler accepted it into. The handler has r until the upcall
// returns; then it is recycled, references dropped, accepted still set —
// a holder that accepts it again panics as for any double accept, until
// the object is handed out anew.
func (d *Device) finishRecv(r *RndvIn) {
	d.debugLiveIn(r)
	d.handler.DeliverRndvDone(r)
	r.UserData, r.conn, r.buf = nil, nil, nil
	d.ins.Put(r)
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
	ids := make([]uint64, 0, len(d.sendRndv))
	for id := range d.sendRndv {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		debug.Assert(!mem.Overlaps(buf, d.sendRndv[id].data),
			"chdev: rank %d: FreeMem of a block rendezvous %d is still sending from", d.rank, id)
	}
	ids = ids[:0]
	for id := range d.recvRndv {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		r := d.recvRndv[id]
		how := "writing into"
		if r.pulled {
			how = "reading into"
		}
		debug.Assert(!mem.Overlaps(buf, r.buf),
			"chdev: rank %d: FreeMem of a block rendezvous %d from rank %d is still %s", d.rank, r.senderReq, r.Src, how)
	}
}

// debugLiveOut asserts, in an ibdebug build, that out is checked out of
// the device's pool and is still the rendezvous the caller knows as id:
// ids are never reused, so the id an object carries is the generation it
// was handed out with. Every table lookup and every completion that names
// a rendezvous passes through here or through debugLiveIn.
func (d *Device) debugLiveOut(out *rndvOut, id uint64) {
	if !debug.Enabled {
		return
	}
	debug.Assert(d.outs.Live(out) && out.id == id,
		"chdev: rank %d: outgoing rendezvous %d used after it was recycled (object now %d, generation %d)",
		d.rank, id, out.id, d.outs.Gen(out))
}

// debugLiveIn is debugLiveOut for an incoming rendezvous, which the
// handler holds too: one kept past DeliverRndvDone is caught at its next
// use. It is named by the sender's id, the one it has from the RTS on.
func (d *Device) debugLiveIn(r *RndvIn) {
	if !debug.Enabled {
		return
	}
	debug.Assert(d.ins.Live(r),
		"chdev: rank %d: rendezvous %d from rank %d used after it was recycled (generation %d)",
		d.rank, r.senderReq, r.Src, d.ins.Gen(r))
}

// sendReturn posts c's explicit return message — an explicit credit
// message (ECM), or whatever the provisioner makes of it — once c's VC has
// said one is due. It may run from a timer event, so it never charges
// process time.
//
// An injected drop fails the message before the wire: what was owed stays
// owed (the VC is not touched, so NeedECM stays true) and the silence
// timer re-arms so it still flows — a peer may be blocked waiting for
// exactly this. An injected duplicate follows a successful message with a
// copy that carries nothing new, exercising exactly-once application at
// the receiver.
func (d *Device) sendReturn(c *conn) bool {
	now := d.eng.Now()
	if d.cfg.Faults != nil && d.cfg.Faults.DropECM(now, d.rank, c.peer) {
		c.vc.NoteECMDropped()
		d.tr(trace.ECMDropped, c.peer, int64(c.vc.Unreturned()))
		t := d.ecmTimer(c)
		if !t.Armed() {
			t.Reset(ecmSilence)
		}
		return false
	}
	h := d.prov.fillReturn(c, Header{Type: PktCredit, Src: int32(d.rank)})
	d.postCtrl(c, h)
	if d.cfg.Faults != nil && d.cfg.Faults.DuplicateECM(now, d.rank, c.peer) {
		c.vc.NoteECMDuplicated()
		d.tr(trace.ECMDuplicated, c.peer, 0)
		// The original took everything owed, so the duplicate carries zero
		// credits — double-applying it cannot mint credit at the peer —
		// or repeats the same absolute ring head, which the peer treats as
		// stale: duplication cannot free slots twice.
		h.Flags, h.Piggyback = 0, 0
		d.postCtrl(c, h)
	}
	return true
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
	if got, want := c.occ, c.qp.QueuedSends(); got != want {
		panic(fmt.Sprintf("chdev: rank %d peer %d ep %d: %d work requests outstanding but the QP holds %d",
			d.rank, c.peer, c.ep, got, want))
	}
}

// flushCredits sends explicit return messages for connections whose owed
// credits (or unannounced ring head) crossed the threshold with no
// outgoing traffic to ride on. The progress engine calls it when the
// session is about to block — the moment it knows the MPI layer has
// nothing else to say to the peer.
func (d *Device) flushCredits() bool {
	did := false
	for _, c := range d.live {
		if c.vc.NeedECM() && d.maybeSendReturn(c) {
			did = true
		}
	}
	return did
}

// ecmTimer lazily creates the connection's deferred-return timer. The
// timer re-checks the silence gate at expiry and keeps re-arming while
// credits (or ring head) remain owed, so a return message that was
// deferred — or dropped by fault injection — is eventually delivered.
func (d *Device) ecmTimer(c *conn) *sim.Timer {
	if c.ecmTimer == nil {
		c.ecmTimer = sim.NewTimer(d.eng, func() {
			if !c.vc.NeedECM() {
				return
			}
			if d.eng.Now()-c.lastSend >= ecmSilence {
				d.sendReturn(c)
			} else {
				c.ecmTimer.Reset(ecmSilence)
			}
		})
	}
	return c.ecmTimer
}

// maybeSendReturn is the silence gate: the explicit return message goes
// out only if the connection has been outbound-silent for ecmSilence (no
// reverse traffic carried the credits or the head); otherwise it arms a
// timer so they still flow even if this rank stays parked (liveness: a
// peer may be blocked waiting for exactly these credits or ring slots).
func (d *Device) maybeSendReturn(c *conn) bool {
	now := d.eng.Now()
	if now-c.lastSend >= ecmSilence {
		return d.sendReturn(c)
	}
	t := d.ecmTimer(c)
	if !t.Armed() {
		t.Reset(c.lastSend + ecmSilence - now)
	}
	return false
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
// id the rendezvous whose payload moved — an RDMA write's in sendRndv,
// whose FIN goes out and whose send finishes, an RDMA read's in recvRndv,
// pulled into the accepted buffer, whose FIN goes out and whose receive
// finishes. Runs in event context; charges no time.
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
		out := d.sendRndvOn(c, wc.WRID, "write completion")
		d.sendFin(c, out.peerReq)
		d.finishSend(out)
	case wc.Opcode == ib.OpReadComplete:
		r := d.takeRecvRndv(c, wc.WRID, "read completion")
		d.sendFin(c, r.senderReq)
		d.finishRecv(r)
	default:
		panic(fmt.Sprintf("chdev: rank %d -> %d: %v completion under rendezvous id %d", d.rank, c.peer, wc.Opcode, wc.WRID))
	}
}

// onRetryExhausted handles the transport's typed RNR-exhaustion error:
// graceful degradation instead of a silent stall or a crash. The frozen
// QP kept the failed WQE (and everything behind it, the pool buffer under
// it included) queued, so re-issuing is just ResumeStalled with a fresh
// retry budget after reissueDelay; sends posted meanwhile queue on the
// frozen QP behind it, in post order. The trace counts the head's
// re-issues from 1.
func (d *Device) onRetryExhausted(c *conn) {
	c.reissues++
	c.vc.NoteReissue()
	d.tr(trace.Reissued, c.peer, int64(c.reissues))
	d.eng.AfterCall(reissueDelay, (*reissueEvent)(c), 0)
}

// reissueEvent is a conn as the target of its re-issue event, reissueDelay
// after its QP froze: a handler type over the same memory, so
// RNR-exhaustion recovery schedules without a closure. The frozen QP kept
// everything queued, so re-issuing is just ResumeStalled with a fresh
// retry budget.
type reissueEvent conn

func (re *reissueEvent) OnEvent(uint64) { re.qp.ResumeStalled() }

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
// occupancy mark.
func (c *conn) stats() Stats {
	vs, qs := c.vc.Stats(), c.qp.Stats()
	return Stats{
		Conns:          1,
		MsgsSent:       vs.MsgsSent,
		EagerSent:      vs.EagerSent,
		Demoted:        vs.Demoted,
		Backlogged:     vs.Backlogged,
		ECMsSent:       vs.ECMsSent,
		GrowthEvents:   vs.GrowthEvents,
		MaxPosted:      vs.MaxPosted,
		RNRNaks:        qs.RNRNaks,
		Retransmits:    qs.Retransmits,
		WastedBytes:    qs.WastedBytes,
		RNRExhausted:   qs.RNRExhausted,
		Reissues:       vs.Reissues,
		ECMsDropped:    vs.ECMsDropped,
		ECMsDuplicated: vs.ECMsDuplicated,
		OccupancyHWM:   c.occHWM,
	}
}

package chdev

import (
	"fmt"

	"ibflow/internal/core"
	"ibflow/internal/ib"
	"ibflow/internal/metrics"
	"ibflow/internal/trace"
)

// recvProvisioner is the transport-shape seam, one of the two that keep
// the device blind to the flow control scheme. The other is core.VC: *when*
// a message may go and what comes back for it is a decision, and the
// device asks the connection's VC. *How* it travels is a shape, and lives
// here: which queue a connection's receives come from, what set-up
// exchanges, whether an eager packet is a send or a write into a ring
// slot, where an arrival landed and what frees it, what an explicit return
// message carries, which way round a rendezvous runs, and the conservation
// laws that follow from all that. Three shapes implement it:
// per-connection receive queues (hardware/static/dynamic), one SRQ-backed
// pool shared by every connection (core.KindShared), and the ring
// channel's persistent slots beside a fixed control quota
// (core.KindRDMA); the latter two embed the first and override what
// differs. newProvisioner is the one place the package looks at the kind.
//
// What a shape posts is a descriptor (ib.QP.PostRecvFrom): a count the
// scheme accounts for, naming the device's buffer pool. The host bytes
// exist only from the landing of a message to the end of its processing
// — the transport takes a buffer of the message's size class when it
// accepts the message, processed returns it — while what the scheme
// accounts for is a bufSize buffer per descriptor.
//
// Arguments cross this interface by value, or as pointers to what already
// lives on the heap (a conn, the progress machine's header): a pointer to
// a caller's local would escape through the dynamic call and cost an
// allocation per message.
type recvProvisioner interface {
	// initQP makes qp — a new conn's — a transport endpoint wired to this
	// provisioning shape (private receive queue or shared SRQ).
	initQP(qp *ib.QP)
	// provisionConn sets up this end's receive resources for a newly
	// established connection: pre-posted descriptors, reserved regions.
	provisionConn(c *conn)

	// postEager ships an encoded eager packet the VC admitted.
	postEager(c *conn, buf []byte, n int)
	// landed accounts for an arrival of n bytes on c and returns the bytes
	// it landed in: buf, the buffer its receive descriptor committed, or —
	// when the arrival consumed none — wherever imm says the peer wrote it.
	landed(c *conn, buf []byte, n int, imm uint32) []byte
	// processed finishes with an arrival: release what landed returned,
	// run the receiver-side accounting, repost the descriptor or let it
	// lapse. Runs in event context on the progress machine.
	processed(c *conn, buf []byte, hdr *Header)
	// fillReturn completes the explicit return message c's VC said is due.
	fillReturn(c *conn, h Header) Header

	// accept is the first phase of accepting a rendezvous into r.buf
	// (registered as mr; nil for a zero-length transfer): whatever must be
	// decided before the registration charge elapses, returned as the
	// header of the reply.
	accept(r *RndvIn, mr *ib.MR) Header
	// accepted is the second phase, after the charge: the encoded reply
	// for the caller to charge the header copy for and post, or nil if
	// the shape moved the transfer along itself.
	accepted(r *RndvIn, h Header) []byte
	// fin handles an arrived FIN naming rendezvous seq of c.
	fin(c *conn, seq uint32)

	// stats completes the device's counters with what the shape owns:
	// the receive memory it provisions (SumPosted, BufBytesInUse and
	// BufBytesHWM, the number the connection-scaling benchmark plots
	// against peers) and its own counters.
	stats(s Stats) Stats
	// audit checks this shape's conservation law at quiescence;
	// auditPair the law that spans both ends of one connection.
	audit() error
	auditPair(c, rc *conn) error
}

// newProvisioner builds the shape d's scheme calls for and reports the
// largest payload its eager channel carries.
func newProvisioner(d *Device) (recvProvisioner, int) {
	switch d.params.Kind {
	case core.KindShared:
		return newPoolProvisioner(d), eagerThreshold
	case core.KindRDMA:
		return newRingProvisioner(d), d.params.SlotBytes - HeaderSize
	}
	return &connProvisioner{d: d}, eagerThreshold
}

// connProvisioner is the classic shape: each connection owns a private
// receive queue pre-posted to the VC's target, and processed buffers
// repost onto the same connection. Eager packets are sends, explicit
// returns are credit messages, and a rendezvous is RTS, CTS, RDMA write,
// FIN.
type connProvisioner struct {
	d *Device
}

func (cp *connProvisioner) initQP(qp *ib.QP) {
	cp.d.hca.InitQP(qp, cp.d.cq, cp.d.cq, nil)
}

func (cp *connProvisioner) provisionConn(c *conn) {
	cp.d.prepost(c, c.vc.Posted())
}

func (cp *connProvisioner) postEager(c *conn, buf []byte, n int) {
	cp.d.postPacket(c, buf, n)
}

func (cp *connProvisioner) landed(c *conn, buf []byte, n int, imm uint32) []byte { return buf }

func (cp *connProvisioner) processed(c *conn, buf []byte, hdr *Header) {
	d := cp.d
	d.pool.Put(buf)
	c.vc.BufferProcessed(hdr.Flags&FlagCredit != 0, d.eng.Now())
	c.qp.PostRecvFrom(0, d.pool)
}

// fillReturn makes the message an explicit credit message (ECM). It is
// optimistic: it bypasses user-level flow control entirely, as CTS, FIN
// and a demoted RTS do. An ECM that needed a credit could deadlock two
// mutually starved ranks; the model check in internal/core finds that
// deadlock (TestModelPessimisticRuleDeadlocks).
func (cp *connProvisioner) fillReturn(c *conn, h Header) Header {
	h.Piggyback = uint32(c.vc.TakeECM())
	return h
}

// accept enters the transfer in recvRndv for the sender's FIN and builds
// the CTS carrying the registered destination, echoing the RTS's number.
// Its piggyback is taken now, before the registration charge: in process
// context an ECM timer can fire inside that charge.
func (cp *connProvisioner) accept(r *RndvIn, mr *ib.MR) Header {
	d := cp.d
	d.recvRndv[d.rndvKey(r.conn, r.seq)] = r
	h := Header{
		Type:      PktCTS,
		Src:       int32(d.rank),
		Len:       uint32(r.Len),
		Piggyback: uint32(r.conn.vc.TakePiggyback()),
		Seq:       r.seq,
	}
	if mr != nil {
		h.MRID = uint32(mr.ID())
	}
	return h
}

func (cp *connProvisioner) accepted(r *RndvIn, h Header) []byte {
	pkt := cp.d.pool.GetN(HeaderSize)
	h.Encode(pkt)
	return pkt
}

// fin: the sender's RDMA write completed, the data is in the buffer.
func (cp *connProvisioner) fin(c *conn, seq uint32) {
	cp.d.finishRecv(cp.d.takeRecvRndv(c, seq, "FIN"))
}

// stats: each connection's receive memory is its own pre-post, so the
// device's is their sum (SumPosted, which the ends report), and a
// pre-post never shrinks, so that is also its mark.
func (cp *connProvisioner) stats(s Stats) Stats {
	s.BufBytesInUse = s.SumPosted * bufSize
	s.BufBytesHWM = s.BufBytesInUse
	return s
}

// audit checks descriptor conservation, the twin of the shared shape's
// SRQ law: at quiescence every descriptor the VC accounts for is posted
// on the connection's queue.
func (cp *connProvisioner) audit() error {
	for _, c := range cp.d.live {
		if err := cp.d.auditPosted(c, c.vc.Posted()); err != nil {
			return err
		}
	}
	return nil
}

// auditPair checks the conservation law of the credit-based schemes on
// the c -> rc direction: every credit rc ever granted is back in c's
// sender-side pool or still owed at rc. It holds through dynamic growth
// (new buffers mint owed credit); a scheme without sender credits has no
// such law.
func (cp *connProvisioner) auditPair(c, rc *conn) error {
	if !cp.d.params.UserLevel() {
		return nil
	}
	if got, want := c.vc.Credits()+rc.vc.Owed(), rc.vc.Posted(); got != want {
		return fmt.Errorf(
			"chdev audit: credit leak on %d -> %d: credits %d + owed %d = %d, posted %d",
			cp.d.rank, c.peer, c.vc.Credits(), rc.vc.Owed(), got, want)
	}
	return nil
}

// auditPosted checks that c's receive queue holds exactly want posted
// descriptors: a repost skipped, or made twice, shows here.
func (d *Device) auditPosted(c *conn, want int) error {
	if got := c.qp.PostedRecvs(); got != want {
		return fmt.Errorf("chdev audit: rank %d peer %d ep %d: receive descriptor leak: queue holds %d posted, accounting says %d",
			d.rank, c.peer, c.ep, got, want)
	}
	return nil
}

// poolProvisioner is the shared shape: one SRQ holds every receive
// descriptor, every QP consumes from it, and a core.Pool carries the
// accounting. Replenishment is watermark-driven — the SRQ limit event
// grows the pool — instead of per-connection credit bookkeeping.
// Everything a message does on the way is the classic shape's.
type poolProvisioner struct {
	connProvisioner
	srq  *ib.SRQ
	pool *core.Pool
}

// newPoolProvisioner provisions the pool once per device: its size tracks
// aggregate pressure, not the connection count — that is the whole point
// of the shared scheme.
func newPoolProvisioner(d *Device) *poolProvisioner {
	pp := &poolProvisioner{connProvisioner{d}, d.hca.NewSRQ(), core.NewPool(&d.params)}
	pp.srq.SetLimit(pp.pool.Watermark(), pp.onLimit)
	pp.post(pp.pool.Posted())
	if r := d.registry(); r != nil {
		pp.pool.RegisterMetrics(r, d.rank)
	}
	return pp
}

func (pp *poolProvisioner) post(n int) {
	for i := 0; i < n; i++ {
		pp.srq.PostRecvFrom(0, pp.d.pool)
	}
}

// onLimit handles the SRQ's low-watermark limit event: the free
// descriptor count dipped below the watermark, so replenish the shared
// pool by the scheme's increment. Replenishment is watermark-driven —
// one event per dip, paced by the growth cooldown — rather than
// per-message, which is what keeps the pool's size tracking aggregate
// pressure instead of the connection count.
func (pp *poolProvisioner) onLimit() {
	d := pp.d
	d.tr(trace.PoolLimit, d.rank, 0, int64(pp.srq.PostedRecvs()))
	if grow := pp.pool.OnLimitEvent(d.eng.Now()); grow > 0 {
		pp.post(grow)
		d.tr(trace.PoolGrew, d.rank, 0, int64(pp.pool.Posted()))
	}
}

func (pp *poolProvisioner) initQP(qp *ib.QP) {
	pp.d.hca.InitQP(qp, pp.d.cq, pp.d.cq, pp.srq)
}

func (pp *poolProvisioner) provisionConn(c *conn) {}

func (pp *poolProvisioner) landed(c *conn, buf []byte, n int, imm uint32) []byte {
	pp.pool.Take()
	return buf
}

func (pp *poolProvisioner) processed(c *conn, buf []byte, hdr *Header) {
	pp.d.pool.Put(buf)
	pp.pool.Processed()
	pp.post(1)
}

// stats: the pool's accounting replaces the per-VC receiver-side numbers,
// which are vestigial under this scheme. The pool never shrinks, so its
// size is also its mark. The SRQ counts the limit events it fires.
func (pp *poolProvisioner) stats(s Stats) Stats {
	s.MaxPosted = pp.pool.Posted()
	s.SumPosted = pp.pool.Posted()
	s.BufBytesInUse = s.SumPosted * bufSize
	s.BufBytesHWM = s.BufBytesInUse
	s.LimitEvents = pp.srq.Stats().LimitEvents
	s.GrowthEvents += pp.pool.Stats().GrowthEvents
	return s
}

// audit checks the shared shape's conservation law: at quiescence every
// descriptor the pool accounts for is free in the SRQ — nothing in
// flight (InUse == 0) and the SRQ's free count equals the pool target.
// This is the pooled analogue of the credit law A.credits + B.owed ==
// B.posted: "posted" lives in one place and "owed/credits" collapse to
// the in-use count, which must be zero when the job is settled.
func (pp *poolProvisioner) audit() error {
	pp.pool.CheckInvariants()
	if n := pp.pool.InUse(); n != 0 {
		return fmt.Errorf("chdev audit: rank %d: %d shared-pool buffers still in use at quiescence",
			pp.d.rank, n)
	}
	if got, want := pp.srq.PostedRecvs(), pp.pool.Posted(); got != want {
		return fmt.Errorf("chdev audit: rank %d: shared-pool descriptor leak: SRQ holds %d free, accounting says %d",
			pp.d.rank, got, want)
	}
	return nil
}

// ringProvisioner is the ring shape (core.KindRDMA), the persistent-slot
// design where flow control IS the ring geometry. Each end reserves an
// inbound region of Prepost slots of SlotBytes (conn.ringMR) and writes
// into the peer end's; position mod slots is the slot, so
// there are no free/used lists and a slot's address is arithmetic on its
// region. Eager data is RDMA-written into the slots and consumes no
// receive descriptor; the only posted receives are a small fixed control
// quota per connection (RTS/FIN/sync packets), recycled 1:1. The explicit
// return is a head sync, and a rendezvous is RTS, RDMA read, FIN: the RTS
// names the source region, so there is no CTS round. The VC's two Rings
// keep the books.
type ringProvisioner struct {
	connProvisioner
	// readTotal counts payload bytes pulled by the RDMA-read rendezvous.
	readTotal uint64
}

// CheckSlotBytes rejects a ring slot that cannot hold a header and some
// payload, or that overflows the staging buffer its contents pass through.
func CheckSlotBytes(n int) error {
	if n <= HeaderSize {
		return fmt.Errorf("chdev: ring slot size %d below header size %d", n, HeaderSize)
	}
	if n > bufSize {
		return fmt.Errorf("chdev: ring slot size %d exceeds staging buffer size %d", n, bufSize)
	}
	return nil
}

func newRingProvisioner(d *Device) *ringProvisioner {
	if err := CheckSlotBytes(d.params.SlotBytes); err != nil {
		panic(err)
	}
	rp := &ringProvisioner{connProvisioner: connProvisioner{d}}
	if r := d.registry(); r != nil {
		rank := metrics.RankLabel(d.rank)
		r.CounterFunc("chdev_rndv_read_bytes", func() uint64 { return rp.readTotal }, rank)
		r.GaugeFunc("chdev_ring_occupancy_hwm",
			func() int64 { return int64(d.Stats().RingOccupancyHWM) }, rank)
		r.CounterFunc("chdev_ring_syncs",
			func() uint64 { return d.Stats().RingSyncs }, rank)
	}
	return rp
}

// provisionConn posts the control quota and reserves this end's inbound
// slot ring. The region is pinned for the connection's lifetime on the
// virtual clock (Stats counts it from here on, Prepost × SlotBytes); its
// host bytes are committed slot by slot — the slot is the region's
// commit granule, this shape's choice — and within a slot only as far
// as the packets written into it have reached (ib.MR.Window). Ring
// memory is never served from the buffer pool: a slot's host bytes are
// the same bytes on every lap until a longer packet grows them, and the
// re-commit that grows them poisons the bytes it leaves, so an overrun
// keeps corrupting a live payload and a flow-control bug cannot hide.
func (rp *ringProvisioner) provisionConn(c *conn) {
	d := rp.d
	d.prepost(c, ctrlPrepost)
	d.hca.InitMR(&c.ringMR, d.params.Prepost*d.params.SlotBytes, d.params.SlotBytes)
}

// postEager writes the packet into the next ring position of the peer
// end's inbound ring, whose geometry is this end's own: configuration
// is uniform across the job. The VC saw a free slot before admitting
// it, so Reserve cannot overrun the peer's last announced head.
func (rp *ringProvisioner) postEager(c *conn, buf []byte, n int) {
	d := rp.d
	slot := c.vc.RingOut().Reserve()
	stampRingHead(buf, c.vc.PiggybackHead())
	d.track(c)
	c.qp.PostWriteNotify(0, buf[:n], ib.RemoteKey{MR: &c.peerEnd().ringMR, Offset: slot * d.params.SlotBytes}, uint32(slot))
	c.lastSend = d.eng.Now()
	d.tr(trace.SendEager, int(c.peer), packetSeq(buf), int64(n))
}

// landed: a control packet arrives in a descriptor's buffer; an eager one
// was written into a slot and detected there (the notify completion
// models memory polling). Ring arrivals are in order, so the slot is
// determined by the ring tail; the immediate value must agree. The
// window is the n bytes the write landed, not the whole slot, so it
// stays inside what that write committed.
func (rp *ringProvisioner) landed(c *conn, buf []byte, n int, imm uint32) []byte {
	if buf != nil {
		return buf
	}
	slot := c.vc.RingIn().Arrived()
	if slot != int(imm) {
		panic(fmt.Sprintf("chdev: ring arrival in slot %d, expected %d", imm, slot))
	}
	return c.ringMR.Window(slot*rp.d.params.SlotBytes, n)
}

// processed: consuming an eager packet's slot advances the head, which
// the peer learns from the next piggyback or an explicit sync; a control
// packet's descriptor is recycled 1:1, so the control quota is constant
// for the connection's lifetime.
func (rp *ringProvisioner) processed(c *conn, buf []byte, hdr *Header) {
	if hdr.Type == PktEager {
		c.vc.RingIn().Consumed()
		return
	}
	rp.d.pool.Put(buf)
	c.qp.PostRecvFrom(0, rp.d.pool)
}

// fillReturn makes the message a head sync, the ring's analogue of an ECM.
func (rp *ringProvisioner) fillReturn(c *conn, h Header) Header {
	h.Type = PktRingSync
	h.RingHead = c.vc.RingIn().TakeHead(false)
	return h
}

func (rp *ringProvisioner) accept(r *RndvIn, mr *ib.MR) Header { return Header{} }

// accepted pulls the payload from the source region the RTS named with an
// RDMA read, posted under the RTS's number and entered in recvRndv as
// the write shape's accept enters it; the read's completion sends the
// FIN and delivers (retireSend). A zero-length transfer has nothing to
// pull and finishes here.
func (rp *ringProvisioner) accepted(r *RndvIn, h Header) []byte {
	d, c := rp.d, r.conn
	if r.Len == 0 {
		d.sendFin(c, r.seq)
		d.finishRecv(r)
		return nil
	}
	r.pulled = true
	d.recvRndv[d.rndvKey(c, r.seq)] = r
	mr := c.qp.Peer().HCA().LookupMR(int(r.senderMR))
	d.track(c)
	c.qp.PostRead(uint64(r.seq), r.buf[:r.Len], ib.RemoteKey{MR: mr})
	c.lastSend = d.eng.Now()
	rp.readTotal += uint64(r.Len)
	d.tr(trace.SendRDMARead, int(c.peer), r.seq, int64(r.Len))
	return nil
}

// fin: the ring rendezvous FIN travels receiver -> sender — the RDMA read
// finished, the source buffer is free.
func (rp *ringProvisioner) fin(c *conn, seq uint32) {
	rp.d.finishSend(c, rp.d.sendRndvOn(c, seq, "FIN"))
}

// stats counts the pinned ring slots alongside the control receives:
// both are per-connection receive memory held for the connection's
// lifetime, even though nothing is "posted" for a slot. The sum is also
// the high-water mark — the ring never grows.
func (rp *ringProvisioner) stats(s Stats) Stats {
	for _, c := range rp.d.live {
		in, out := c.vc.RingIn().Stats(), c.vc.RingOut().Stats()
		s.Add(Stats{RingSyncs: uint64(in.Syncs), RingOccupancyHWM: int(max(in.OccupancyHWM, out.OccupancyHWM))})
	}
	s.RndvReadBytes = rp.readTotal
	s.SumPosted = s.Conns * ctrlPrepost
	s.BufBytesInUse = s.SumPosted*bufSize + s.Conns*rp.d.params.Prepost*rp.d.params.SlotBytes
	s.BufBytesHWM = s.BufBytesInUse
	return s
}

// audit checks each endpoint's own ring law at quiescence — full
// consumption: every arrived slot was consumed, so head == tail on the
// inbound view (the counter invariants head <= tail <= head + slots are
// the VC's) — and the control quota's descriptor conservation.
func (rp *ringProvisioner) audit() error {
	for _, c := range rp.d.live {
		if h, t := c.vc.RingIn().Head(), c.vc.RingIn().Tail(); h != t {
			return fmt.Errorf("chdev audit: rank %d peer %d ep %d: %d ring arrivals unconsumed at quiescence",
				rp.d.rank, c.peer, c.ep, int32(t-h))
		}
		if err := rp.d.auditPosted(c, ctrlPrepost); err != nil {
			return err
		}
	}
	return nil
}

// auditPair checks the ring conservation laws on the c -> rc direction:
// every slot c reserved arrived at rc (the write channel loses nothing),
// and at quiescence c's view of rc's head has caught up with everything
// rc announced.
func (rp *ringProvisioner) auditPair(c, rc *conn) error {
	out, in := c.vc.RingOut(), rc.vc.RingIn()
	if got, want := out.Tail(), in.Tail(); got != want {
		return fmt.Errorf(
			"chdev audit: ring slot leak on %d -> %d: %d reserved, %d arrived",
			rp.d.rank, c.peer, got, want)
	}
	if got, want := out.HeadSeen(), in.HeadSent(); got != want {
		return fmt.Errorf(
			"chdev audit: ring head skew on %d -> %d: sender saw %d, receiver sent %d",
			rp.d.rank, c.peer, got, want)
	}
	return nil
}

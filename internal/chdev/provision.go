package chdev

import (
	"fmt"

	"ibflow/internal/core"
	"ibflow/internal/ib"
	"ibflow/internal/trace"
)

// recvProvisioner is the device-side half of the receive-provisioning
// seam: everything the device does with posted receive descriptors —
// creating endpoints, pre-posting at wire-up, accounting an arrival,
// reposting after processing, and auditing conservation at quiescence —
// goes through this interface instead of touching QPs directly. Three
// shapes implement it: per-connection queues (hardware/static/dynamic),
// one SRQ-backed pool shared by every connection (core.KindShared), and
// the ring channel's fixed control quota (core.KindRDMA).
//
// What a shape posts is a descriptor (ib.QP.PostRecvFrom): a count the
// scheme accounts for, naming the device's buffer pool. The host bytes
// exist only from the landing of a message to the end of its processing
// — the transport takes a buffer when it accepts the message, pcPktTail
// returns it — so the provisioner never handles a buffer.
type recvProvisioner interface {
	// newQP creates a transport endpoint wired to this provisioning
	// shape (private receive queue or shared SRQ).
	newQP() *ib.QP
	// provisionConn pre-posts receive resources for a newly established
	// connection; a no-op for the shared shape, whose pool is
	// provisioned once per device.
	provisionConn(c *conn)
	// arrival accounts for the receive descriptor an arrived packet
	// consumed.
	arrival()
	// processed finishes with a consumed descriptor: run the
	// receiver-side accounting, then repost it or let it lapse. Runs in
	// event context on the progress machine.
	processed(c *conn, consumedCredit bool)
	// posted reports receive descriptors currently provisioned
	// (Stats.SumPosted, the live buffer-memory proxy).
	posted() int
	// postedHWMBytes is the high-water mark of receive-buffer memory,
	// the number the connection-scaling benchmark plots against peers.
	postedHWMBytes() int
	// audit checks this shape's conservation law at quiescence.
	audit() error
}

// connProvisioner is the classic shape: each connection owns a private
// receive queue pre-posted to the VC's target, and processed buffers
// repost onto the same connection (or retire, when the dynamic scheme's
// shrink is paying down debt).
type connProvisioner struct {
	d *Device
}

func (cp *connProvisioner) newQP() *ib.QP {
	return cp.d.hca.NewQP(cp.d.cq, cp.d.cq)
}

func (cp *connProvisioner) provisionConn(c *conn) {
	cp.d.prepost(c, c.vc.Posted())
}

func (cp *connProvisioner) arrival() {}

func (cp *connProvisioner) processed(c *conn, consumedCredit bool) {
	d := cp.d
	if c.vc.BufferProcessed(consumedCredit, d.eng.Now()) {
		c.qp.PostRecvFrom(0, d.pool)
	} else {
		d.tr(trace.Shrank, c.peer, int64(c.vc.Posted()))
	}
}

func (cp *connProvisioner) posted() int {
	n := 0
	for _, c := range cp.d.live {
		n += c.vc.Posted()
	}
	return n
}

func (cp *connProvisioner) postedHWMBytes() int {
	n := 0
	for _, c := range cp.d.live {
		n += c.vc.Stats().MaxPosted
	}
	return n * cp.d.cfg.BufSize
}

// audit checks descriptor conservation, the twin of the shared shape's
// SRQ law: at quiescence every descriptor the VC accounts for is posted
// on the connection's queue. (The per-channel credit law spans two
// devices — A.credits + B.owed == B.posted — and is checked pairwise in
// Audit, where both endpoints are in hand.)
func (cp *connProvisioner) audit() error {
	for _, c := range cp.d.live {
		if err := cp.d.auditPosted(c, c.vc.Posted()); err != nil {
			return err
		}
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

// ringProvisioner is the ring shape (core.KindRDMA): eager data lands in
// persistent RDMA-written ring slots that consume no receive descriptors
// at all, so the only posted receives are a small fixed control quota per
// connection (RTS/FIN/sync packets), recycled 1:1. Flow control is the
// ring geometry itself — audited here per endpoint and pairwise in Audit.
type ringProvisioner struct {
	d *Device
}

func (rp *ringProvisioner) newQP() *ib.QP {
	return rp.d.hca.NewQP(rp.d.cq, rp.d.cq)
}

func (rp *ringProvisioner) provisionConn(c *conn) {
	rp.d.prepost(c, rp.d.cfg.CtrlPrepost)
}

func (rp *ringProvisioner) arrival() {}

// processed recycles a consumed control descriptor 1:1: eager data never
// lands here (it arrives in ring slots via OpRecvImm), so the control
// quota is constant for the connection's lifetime.
func (rp *ringProvisioner) processed(c *conn, consumedCredit bool) {
	c.qp.PostRecvFrom(0, rp.d.pool)
}

func (rp *ringProvisioner) posted() int {
	return len(rp.d.live) * rp.d.cfg.CtrlPrepost
}

// postedHWMBytes counts the pinned ring slots alongside the control
// receives: both are per-connection receive memory held for the
// connection's lifetime, and the sum is what the scaling benchmark
// plots. It is also the high-water mark — the ring never grows.
func (rp *ringProvisioner) postedHWMBytes() int {
	return len(rp.d.live) * (rp.d.params.Prepost*rp.d.params.SlotBytes + rp.d.cfg.CtrlPrepost*rp.d.cfg.BufSize)
}

// audit checks each endpoint's ring laws at quiescence: the counter
// invariants (head <= tail <= head + slots in signed-distance form),
// full consumption — every arrived slot was consumed, so head == tail on
// the inbound view — and the control quota's descriptor conservation.
func (rp *ringProvisioner) audit() error {
	for _, c := range rp.d.live {
		c.ringIn.CheckInvariants()
		c.ringOut.CheckInvariants()
		if h, t := c.ringIn.Head(), c.ringIn.Tail(); h != t {
			return fmt.Errorf("chdev audit: rank %d peer %d ep %d: %d ring arrivals unconsumed at quiescence",
				rp.d.rank, c.peer, c.ep, int32(t-h))
		}
		if err := rp.d.auditPosted(c, rp.d.cfg.CtrlPrepost); err != nil {
			return err
		}
	}
	return nil
}

// poolProvisioner is the shared shape: one SRQ holds every receive
// descriptor, every QP consumes from it, and a core.Pool carries the
// accounting. Replenishment is watermark-driven — the SRQ limit event
// grows the pool — instead of per-connection credit bookkeeping.
type poolProvisioner struct {
	d    *Device
	srq  *ib.SRQ
	pool *core.Pool
}

func (pp *poolProvisioner) newQP() *ib.QP {
	return pp.d.hca.NewQPWithSRQ(pp.d.cq, pp.d.cq, pp.srq)
}

// provisionConn is a no-op: the pool was provisioned at device creation
// and its size tracks aggregate pressure, not the connection count —
// that is the whole point of the shared scheme.
func (pp *poolProvisioner) provisionConn(c *conn) {}

func (pp *poolProvisioner) arrival() { pp.pool.Take() }

func (pp *poolProvisioner) processed(c *conn, consumedCredit bool) {
	if pp.pool.Processed() {
		pp.srq.PostRecvFrom(0, pp.d.pool)
	}
}

func (pp *poolProvisioner) posted() int { return pp.pool.Posted() }

func (pp *poolProvisioner) postedHWMBytes() int {
	return pp.pool.Stats().MaxPosted * pp.d.cfg.BufSize
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

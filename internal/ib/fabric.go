package ib

import (
	"fmt"

	"ibflow/internal/sim"
)

// Fabric is an InfiniBand network connecting n HCAs through one crossbar
// switch or a two-level fat tree (Config.Topology).
type Fabric struct {
	eng    *sim.Engine
	cfg    Config
	hcas   []*HCA
	leaves []*leafSwitch

	// trunkFree recycles trunkEvent hops (see topology.go) so inter-leaf
	// delivery stays allocation-free at steady state.
	trunkFree *trunkEvent

	// udFree recycles udDeliverEvent arrivals (see ud.go) the same way.
	udFree *udDeliverEvent

	// udBufs recycles the MaxUDPayload staging buffers that ride those
	// arrivals, so datagram sends stop allocating per message.
	udBufs [][]byte
}

// NewFabric creates a fabric with nodes HCAs.
func NewFabric(eng *sim.Engine, cfg Config, nodes int) *Fabric {
	if nodes <= 0 {
		panic("ib: fabric needs at least one node")
	}
	f := &Fabric{eng: eng, cfg: cfg}
	for i := 0; i < nodes; i++ {
		f.hcas = append(f.hcas, &HCA{
			fabric:  f,
			node:    i,
			egress:  newPort(cfg.Rails),
			ingress: newPort(cfg.Rails),
		})
	}
	if cfg.Topology == TopoFatTree {
		if cfg.LeafRadix < 1 || cfg.Oversub < 1 {
			panic("ib: fat tree needs LeafRadix >= 1 and Oversub >= 1")
		}
		nLeaves := (nodes + cfg.LeafRadix - 1) / cfg.LeafRadix
		for i := 0; i < nLeaves; i++ {
			f.leaves = append(f.leaves, &leafSwitch{
				up:   newPort(cfg.Rails),
				down: newPort(cfg.Rails),
			})
		}
	}
	return f
}

// Engine returns the simulation engine.
func (f *Fabric) Engine() *sim.Engine { return f.eng }

// Config returns the fabric configuration.
func (f *Fabric) Config() *Config { return &f.cfg }

// Nodes reports the number of HCAs.
func (f *Fabric) Nodes() int { return len(f.hcas) }

// HCA returns the adapter at node i.
func (f *Fabric) HCA(i int) *HCA { return f.hcas[i] }

// link is a FIFO serialization point (one rail of a port direction).
type link struct {
	freeAt sim.Time
}

// reserve books the link for a transmission of duration d starting no
// earlier than now, returning the transmission start time.
func (l *link) reserve(now sim.Time, d sim.Time) sim.Time {
	start := now
	if l.freeAt > start {
		start = l.freeAt
	}
	l.freeAt = start + d
	return start
}

// port is one direction of an attachment point: Config.Rails parallel
// links (rails). Reservations pick the earliest-free rail, breaking ties
// toward the lowest index, so the schedule stays deterministic and a
// single-rail port is byte-identical to the bare link it replaces.
type port struct {
	rails []link
}

// newPort allocates a port with n rails (minimum one).
func newPort(n int) port {
	if n < 1 {
		n = 1
	}
	return port{rails: make([]link, n)}
}

// reserve books the earliest-free rail for a transmission of duration d
// starting no earlier than now, returning the transmission start time.
func (p *port) reserve(now sim.Time, d sim.Time) sim.Time {
	best := 0
	for i := 1; i < len(p.rails); i++ {
		if p.rails[i].freeAt < p.rails[best].freeAt {
			best = i
		}
	}
	return p.rails[best].reserve(now, d)
}

// HCAStats aggregates counters across an adapter's queue pairs.
type HCAStats struct {
	MsgsSent      uint64
	MsgsDelivered uint64
	BytesSent     uint64
	RNRNaks       uint64
	Retransmits   uint64
	WastedBytes   uint64 // bytes of go-back-N retransmissions
	RNRExhausted  uint64 // WQEs that ran out of RNR retry budget
}

// HCA is a host channel adapter: one egress and one ingress port (each
// Config.Rails rails wide) plus the queue pairs and memory regions that
// live on it.
type HCA struct {
	fabric  *Fabric
	node    int
	egress  port
	ingress port
	qps     []*QP
	udqps   []*UDQP
	srqs    []*SRQ
	nextMR  int
	mrs     map[int]*MR
	stats   HCAStats
}

// Node returns the node index this HCA is attached to.
func (h *HCA) Node() int { return h.node }

// Stats returns a copy of the adapter's aggregate counters.
func (h *HCA) Stats() HCAStats { return h.stats }

// Fabric returns the fabric this HCA belongs to.
func (h *HCA) Fabric() *Fabric { return h.fabric }

// NewCQ creates a completion queue on this adapter.
func (h *HCA) NewCQ() *CQ {
	return &CQ{eng: h.fabric.eng, cond: sim.NewCond(h.fabric.eng)}
}

// NewQP creates a queue pair on this adapter using the given completion
// queues (they may be the same queue, as the paper's MPI does). The QP
// owns a private receive queue; use NewQPWithSRQ to share one instead.
func (h *HCA) NewQP(sendCQ, recvCQ *CQ) *QP {
	qp := &QP{
		hca:    h,
		num:    len(h.qps),
		sendCQ: sendCQ,
		recvCQ: recvCQ,
		recv:   &recvQueue{},
	}
	qp.nakEv.qp = qp
	qp.ackEv.qp = qp
	h.qps = append(h.qps, qp)
	return qp
}

// NewQPWithSRQ creates a queue pair whose receive descriptors come from
// the shared receive queue srq instead of a private queue. The SRQ must
// live on the same adapter.
func (h *HCA) NewQPWithSRQ(sendCQ, recvCQ *CQ, srq *SRQ) *QP {
	if srq == nil {
		panic("ib: NewQPWithSRQ with nil SRQ")
	}
	if srq.hca != h {
		panic("ib: SRQ and QP on different HCAs")
	}
	qp := &QP{
		hca:    h,
		num:    len(h.qps),
		sendCQ: sendCQ,
		recvCQ: recvCQ,
		recv:   srq,
	}
	qp.nakEv.qp = qp
	qp.ackEv.qp = qp
	h.qps = append(h.qps, qp)
	return qp
}

// Connect establishes a Reliable Connection between two queue pairs. Both
// must be unconnected and on the same fabric.
func Connect(a, b *QP) {
	if a.peer != nil || b.peer != nil {
		panic("ib: QP already connected")
	}
	if a.hca.fabric != b.hca.fabric {
		panic("ib: QPs on different fabrics")
	}
	if a == b {
		panic("ib: cannot connect a QP to itself")
	}
	a.peer, b.peer = b, a
	a.registerMetrics()
	b.registerMetrics()
}

// ConnectSet establishes Reliable Connections pairwise between two
// equal-length QP slices — the endpoint-set form of Connect used when a
// rank pair owns several independent endpoints (which may share CQs
// and/or an SRQ on each side). Endpoint i of a converses exactly with
// endpoint i of b; connections are made in index order, so a size-1 set
// is literally one Connect call.
func ConnectSet(a, b []*QP) {
	if len(a) != len(b) {
		panic(fmt.Sprintf("ib: endpoint-set size mismatch: %d vs %d", len(a), len(b)))
	}
	if len(a) == 0 {
		panic("ib: empty endpoint set")
	}
	for i := range a {
		Connect(a[i], b[i])
	}
}

// MR is a registered memory region. RDMA operations address remote memory
// as (MR, offset); registration is the unit the pin-down cache manages.
// A region made by ReserveMemory has its length but no host bytes until
// something first writes or reads it.
type MR struct {
	hca *HCA
	id  int
	n   int
	buf []byte // nil while a reserved region is uncommitted
}

// RegisterMemory registers buf and returns its region handle. The caller is
// responsible for charging Config.RegTime to the virtual clock (pinning is
// host work, so the MPI layer accounts for it, enabling pin-down caching).
func (h *HCA) RegisterMemory(buf []byte) *MR {
	mr := h.ReserveMemory(len(buf))
	mr.buf = buf
	return mr
}

// ReserveMemory registers a zeroed region of n bytes the adapter owns,
// without backing it yet: the region has its id, its length and its
// bounds from the start, and its host bytes are committed — whole, and
// for good — by the first RDMA write or read that lands in it or the
// first Bytes call. A region nothing ever touches costs no host memory.
func (h *HCA) ReserveMemory(n int) *MR {
	h.nextMR++
	mr := &MR{hca: h, id: h.nextMR, n: n}
	if h.mrs == nil {
		h.mrs = make(map[int]*MR)
	}
	h.mrs[mr.id] = mr
	return mr
}

// LookupMR resolves a region id previously handed out by RegisterMemory;
// it is the simulator's stand-in for an InfiniBand rkey carried in a
// rendezvous reply message.
func (h *HCA) LookupMR(id int) *MR {
	mr, ok := h.mrs[id]
	if !ok {
		panic(fmt.Sprintf("ib: unknown MR id %d on node %d", id, h.node))
	}
	return mr
}

// ID returns the region's identifier (the simulated rkey).
func (m *MR) ID() int { return m.id }

// Len returns the region's length in bytes.
func (m *MR) Len() int { return m.n }

// Committed reports whether the region has host bytes behind it; only a
// reserved region that nothing has touched yet reports false.
func (m *MR) Committed() bool { return m.buf != nil || m.n == 0 }

// Bytes exposes the registered buffer, committing a reserved region.
func (m *MR) Bytes() []byte {
	if m.buf == nil && m.n > 0 {
		//fclint:allow hotalloc one commit per region lifetime, at its first access; it replaces the make at reservation
		m.buf = make([]byte, m.n)
	}
	return m.buf
}

// RemoteKey identifies a window of a remote memory region for RDMA.
type RemoteKey struct {
	MR     *MR
	Offset int
}

func (r RemoteKey) String() string {
	return fmt.Sprintf("mr%d+%d@node%d", r.MR.id, r.Offset, r.MR.hca.node)
}

package ib

import (
	"fmt"
	"math"

	"ibflow/internal/sim"
	"ibflow/internal/store"
)

// Fabric is an InfiniBand network connecting n HCAs through one crossbar
// switch or a two-level fat tree (Config.Topology).
type Fabric struct {
	eng    *sim.Engine
	cfg    Config
	hcas   []*HCA
	leaves []*leafSwitch
	paths  int // connections given a rail so far (see nextRail)

	// Inter-leaf trunk hops in flight (see topology.go), each taken when a
	// message enters the wire and returned at its last hop.
	trunks store.Pool[trunkEvent]

	// Every CQ's pending completions, each taken at push and returned at
	// Poll (see CQ).
	cqes store.Pool[cqEntry]

	// The host memory the adapters commit for the regions they own, named
	// by index from pointer-free records (see extent), so a granule table
	// is a slab the collector does not scan. Both lists start in the
	// fabric's own backing, so a small world adds no allocation for them.
	pages [][]byte   // commit pages (HCA.commit)
	slabs [][]extent // granule-table slabs (HCA.carveTable)
	page0 [4][]byte
	slab0 [4][]extent
}

// NewFabric creates a fabric with nodes HCAs.
func NewFabric(eng *sim.Engine, cfg Config, nodes int) *Fabric {
	if nodes <= 0 {
		panic("ib: fabric needs at least one node")
	}
	if cfg.Faults != nil {
		cfg.Faults.Bind(nodes, cfg.Tracer)
	}
	f := &Fabric{eng: eng, cfg: cfg}
	f.pages, f.slabs = f.page0[:0], f.slab0[:0]
	rails := max(cfg.Rails, 1)
	for i := 0; i < nodes; i++ {
		h := &HCA{
			fabric:  f,
			node:    i,
			egress:  make([]link, rails),
			ingress: make([]link, rails),
		}
		h.mrs = h.mr0[:0]
		f.hcas = append(f.hcas, h)
	}
	if cfg.Topology == TopoFatTree {
		if cfg.LeafRadix < 1 || cfg.Oversub < 1 {
			panic("ib: fat tree needs LeafRadix >= 1 and Oversub >= 1")
		}
		nLeaves := (nodes + cfg.LeafRadix - 1) / cfg.LeafRadix
		for i := 0; i < nLeaves; i++ {
			f.leaves = append(f.leaves, &leafSwitch{
				up:   make([]link, rails),
				down: make([]link, rails),
			})
		}
	}
	return f
}

// Config returns the fabric configuration.
func (f *Fabric) Config() *Config { return &f.cfg }

// HCA returns the adapter at node i.
func (f *Fabric) HCA(i int) *HCA { return f.hcas[i] }

// link is a FIFO serialization point: one rail of one direction of a port.
// A port is a rail-indexed []link, so a single-rail port is the bare
// link. A message books its path's rail (nextRail) at every hop.
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

// nextRail is the one place a rail is chosen: round-robin, per connection
// (Connect), as a QP's address vector picks its one path on InfiniBand. So a QP's messages stay in posting order.
func (f *Fabric) nextRail() int32 {
	r := int32(f.paths % max(f.cfg.Rails, 1))
	f.paths++
	return r
}

// HCA is a host channel adapter: one egress and one ingress port (each
// Config.Rails links wide) plus the queue pairs and memory regions that
// live on it.
type HCA struct {
	fabric   *Fabric
	node     int
	egress   []link // by rail
	ingress  []link // by rail
	nQP      int32  // queue pairs created so far: the next one's number
	srqs     []*SRQ
	mrs      []*MR               // region id-1 -> region, nil once deregistered: ids are dense from 1, never reused
	mrPool   store.Pool[MR]      // handles of the regions the adapter allocates (ReserveMemory), back at DeregisterMemory
	wqes     store.Pool[sendWQE] // send WQE boxes of every QP here (see sendWQE)
	mr0      [4]*MR              // mrs' first backing: an adapter with a handful of regions allocates no list for them
	page     uint32              // the current commit page, as extent.page names it (see commit)
	pageLeft uint32              // bytes of it not committed yet
	table    uint32              // the name the next table carved from the current slab gets (see carveTable)
	slabLeft uint32              // entries of the current slab not carved yet
	tableDue int                 // table entries the untouched multi-granule regions here may still take
}

// Fabric returns the fabric this HCA is attached to.
func (h *HCA) Fabric() *Fabric { return h.fabric }

// NewCQ creates a completion queue on this adapter.
func (h *HCA) NewCQ() *CQ { return &CQ{fabric: h.fabric} }

// InitQP makes *qp a queue pair on this adapter using the given
// completion queues (they may be the same queue, as the paper's MPI
// does), in storage the caller owns: a consumer that keeps one record per
// connection embeds its QP there. Receive descriptors come from the
// shared receive queue srq, which must live on this adapter, or — srq
// nil — from the QP's private queue. The QP points into itself (its
// queues' first backing arrays), so it must not be copied or moved
// afterwards.
func (h *HCA) InitQP(qp *QP, sendCQ, recvCQ *CQ, srq *SRQ) {
	if srq != nil && srq.hca != h {
		panic("ib: SRQ and QP on different HCAs")
	}
	*qp = QP{hca: h, num: h.nQP, sendCQ: sendCQ, recvCQ: recvCQ, srq: srq}
	h.nQP++
	qp.queue.Seed(qp.queue0[:])
}

// NewQP allocates a queue pair with a private receive queue (see InitQP).
func (h *HCA) NewQP(sendCQ, recvCQ *CQ) *QP {
	qp := new(QP)
	h.InitQP(qp, sendCQ, recvCQ, nil)
	return qp
}

// Connect establishes a Reliable Connection between two queue pairs. Both
// must be unconnected and on the same fabric. Both keep the rail given here.
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
	a.rail = a.hca.fabric.nextRail()
	b.rail = a.rail
	a.registerMetrics()
	b.registerMetrics()
}

// MR is a registered memory region. RDMA operations address remote memory
// as (MR, offset); registration is the unit the pin-down cache manages.
// A region has its id, its length and its bounds from registration on; its
// host bytes exist per commit granule. RegisterMemory's region is one
// granule, the caller's buffer, committed whole. A region the adapter owns
// (ReserveMemory) names its granule, and a granule's host bytes are its
// committed extent: zeroed, never recycled, and only as long as the
// windows opened on it have reached (see Window).
type MR struct {
	hca     *HCA
	id      int32
	n       int32
	granule int32  // commit unit; == n for a region committed whole
	table   uint32 // a multi-granule region's granule table, one extent per granule, carved at the first commit (see carveTable); 0 until then
	buf     []byte // the committed extent of a whole-commit region (nil until committed)
}

// RegisterMemory registers buf and returns its region handle. The caller is
// responsible for charging RegTime to the virtual clock (pinning is
// host work, so the MPI layer accounts for it, enabling pin-down caching).
func (h *HCA) RegisterMemory(buf []byte) *MR {
	mr := h.ReserveMemory(len(buf), len(buf))
	mr.buf = buf
	return mr
}

// InitMR makes *mr a zeroed region of n bytes the adapter owns, in
// storage the caller owns, without backing it: what nothing touches costs
// no host memory. granule is the unit in which it commits (see
// MR.Window): n for a region that is all-or-nothing, the slot size for a
// ring whose slots fill one at a time. A region is shorter than 2^31
// bytes, as a verbs completion's byte count is 32 bits (WC.Len).
func (h *HCA) InitMR(mr *MR, n, granule int) {
	if n < 0 || n > math.MaxInt32 || granule < 0 || granule > n || n > 0 && granule == 0 {
		panic(fmt.Sprintf("ib: reserving %d bytes in granules of %d", n, granule))
	}
	h.mrs = append(h.mrs, mr)
	*mr = MR{hca: h, id: int32(len(h.mrs)), n: int32(n), granule: int32(granule)}
	h.tableDue += mr.tableLen()
}

// ReserveMemory takes a region handle from the adapter and reserves it
// (see InitMR). Handles come from the adapter's pool and go back to it at
// DeregisterMemory, so a pin-down cache miss costs a handle's bytes, not
// an allocation.
func (h *HCA) ReserveMemory(n, granule int) *MR {
	mr := h.mrPool.Get()
	h.InitMR(mr, n, granule)
	return mr
}

// DeregisterMemory releases a region RegisterMemory or ReserveMemory
// handed out (ibv_dereg_mr): its id stops resolving, a registered buffer
// is no longer referenced (what the adapter committed for a region it
// owns stays on the fabric's pages) and its handle goes back to the
// adapter's pool for the next registration. Ids are never reused, so a
// deregistered id can never name a newer region, and the ids later
// registrations get are the ones they would have got without it. Nothing
// may use the region after.
func (h *HCA) DeregisterMemory(mr *MR) {
	if mr.hca != h || h.mrs[mr.id-1] != mr {
		panic(fmt.Sprintf("ib: deregistering MR id %d, which node %d does not hold", mr.id, h.node))
	}
	h.mrs[mr.id-1] = nil
	if mr.table == 0 {
		h.tableDue -= mr.tableLen()
	}
	*mr = MR{}
	h.mrPool.Put(mr)
}

// LookupMR resolves a region id previously handed out by RegisterMemory;
// it is the simulator's stand-in for an InfiniBand rkey carried in a
// rendezvous reply message.
func (h *HCA) LookupMR(id int) *MR {
	if id < 1 || id > len(h.mrs) {
		panic(fmt.Sprintf("ib: unknown MR id %d on node %d", id, h.node))
	}
	mr := h.mrs[id-1]
	if mr == nil {
		panic(fmt.Sprintf("ib: MR id %d on node %d was deregistered", id, h.node))
	}
	return mr
}

// ID returns the region's identifier (the simulated rkey).
func (m *MR) ID() int { return int(m.id) }

// Len returns the region's length in bytes.
func (m *MR) Len() int { return int(m.n) }

// tableLen is the length of the region's granule table: its granule
// count if it commits in more than one granule, else 0 — a region
// committed whole keeps its one granule in buf.
func (m *MR) tableLen() int {
	if m.granule == m.n {
		return 0
	}
	n, g := int(m.n), int(m.granule) // their int32 sum may overflow
	return (n + g - 1) / g
}

// Committed reports how many of the region's bytes have host memory
// behind them: the sum of the granules' committed extents, so 0 for a
// reservation nothing has touched and Len for a registered buffer.
func (m *MR) Committed() int {
	total := len(m.buf)
	if m.table != 0 {
		for i := range m.tableLen() {
			total += len(m.hca.fabric.bytes(*m.entry(i)))
		}
	}
	return total
}

// extentAlign is the unit a granule's committed extent grows in.
const extentAlign = 64

// poison is what the bytes a re-commit leaves behind read from then on.
const poison = 0xA5

// Window returns the n bytes at offset off. It is the one way to the
// region's bytes: both RDMA landings go through it, and so does whoever
// consumes what landed. A window may not straddle a granule; an RDMA
// operation on a multi-granule region addresses one slot.
//
// A granule's host bytes cover its committed extent, from the granule's
// start to the farthest byte a window has reached, rounded up to
// extentAlign and capped at the granule and the region's end. The first
// window on a granule commits that extent; a later one within it commits
// nothing and sees the same bytes. A window that reaches past it
// re-commits: fresh bytes from the adapter, the old extent copied in,
// and the old bytes filled with poison, so whoever still holds a slice
// of them reads visible damage instead of a stale, clean copy. A
// registered region is committed whole and never re-commits.
func (m *MR) Window(off, n int) []byte {
	size, gran := int(m.n), int(m.granule)
	if off < 0 || n < 0 || off+n > size {
		panic(fmt.Sprintf("ib: window [%d,%d) beyond %d-byte region", off, off+n, size))
	}
	if n == 0 {
		return nil
	}
	i := off / gran
	base := i * gran
	if off+n > base+gran {
		panic(fmt.Sprintf("ib: window [%d,%d) straddles a %d-byte commit granule", off, off+n, gran))
	}
	var e *extent // the granule's record; nil for a region committed whole
	g := m.buf
	if gran < size {
		if m.table == 0 {
			m.table = m.hca.carveTable(m.tableLen())
		}
		e = m.entry(i)
		g = m.hca.fabric.bytes(*e)
	}
	if end := off - base + n; end > len(g) {
		rec := m.hca.commit(min((end+extentAlign-1)/extentAlign*extentAlign, gran, size-base))
		fresh := m.hca.fabric.bytes(rec)
		copy(fresh, g)
		for j := range g {
			g[j] = poison
		}
		if e != nil {
			*e = rec
		} else {
			m.buf = fresh
		}
		g = fresh
	}
	return g[off-base : off-base+n]
}

// entry returns the record of granule i of a region whose table is
// carved: table names a slab and an entry in it (see carveTable).
func (m *MR) entry(i int) *extent {
	t := int(m.table)
	return &m.hca.fabric.slabs[t>>slabShift-1][t&(tableSlab-1)+i]
}

// extent records a granule's committed extent: which of the fabric's
// commit pages holds it and where. It holds no pointer, so neither does a
// granule table, and the collector does not scan the tables.
type extent struct {
	page uint32 // 1 + the page's index in Fabric.pages; 0 while nothing is committed
	off  uint16 // where the extent starts in the page
	n    uint16 // its length, below commitPage; 0 for an extent that is a page of its own
}

// bytes resolves a record to the host bytes it names, capped at the
// extent: nil for a granule nothing has committed.
func (f *Fabric) bytes(e extent) []byte {
	if e.page == 0 {
		return nil
	}
	p := f.pages[e.page-1]
	if e.n == 0 {
		return p
	}
	return p[e.off : e.off+e.n : e.off+e.n]
}

// commitPage is how much host memory the adapter takes at a time for the
// granule extents of the regions it owns: small extents are carved from
// a shared page, so committing ring slots one at a time costs one
// allocation per page of them, not one each.
const commitPage = 4 << 10

// commit returns the record of n zeroed bytes of adapter-owned memory for
// a granule's extent (see MR.Window), capped at n so a write past the
// extent cannot spill into its neighbour unnoticed. An extent that does
// not fit what is left of the page starts the next one; one of a page or
// more is a page of its own. Every page goes on the fabric's list, which
// the records index; nothing carved is ever handed out again, not even
// the extent a re-commit leaves behind.
func (h *HCA) commit(n int) extent {
	if n <= int(h.pageLeft) {
		e := extent{page: h.page, off: uint16(commitPage - h.pageLeft), n: uint16(n)}
		h.pageLeft -= uint32(n)
		return e
	}
	f := h.fabric
	//fclint:allow hotalloc one allocation per commitPage bytes of granule extents, each committed at a first access or a growth; it replaces the make at reservation
	fresh := make([]byte, max(n, commitPage))
	f.pages = append(f.pages, fresh)
	p := uint32(len(f.pages))
	if n >= commitPage {
		return extent{page: p}
	}
	h.page, h.pageLeft = p, uint32(commitPage-n)
	return extent{page: p, n: uint16(n)}
}

// tableSlab is the most granule-table entries the adapter takes at a
// time: a slab holds the tables of several small rings, so each costs a
// share of one allocation rather than one of its own. A table's name
// (MR.table) is 1 + its slab's index in Fabric.slabs, shifted by
// slabShift, plus its first entry's place in the slab.
const (
	slabShift = 6
	tableSlab = 1 << slabShift
)

// carveTable returns the name of a zeroed granule table of n entries for
// a multi-granule region's first commit. A table that does not fit what
// is left of the slab starts the next one, sized to what the untouched
// regions here may still take (this one's included) up to tableSlab, so
// an adapter with one ring carves exactly its table; a table of tableSlab
// entries or more is a slab of its own. Nothing carved is ever handed
// out again.
func (h *HCA) carveTable(n int) uint32 {
	due := h.tableDue
	h.tableDue -= n
	if n <= int(h.slabLeft) {
		t := h.table
		h.table += uint32(n)
		h.slabLeft -= uint32(n)
		return t
	}
	f := h.fabric
	slab := make([]extent, max(n, min(due, tableSlab)))
	f.slabs = append(f.slabs, slab)
	t := uint32(len(f.slabs)) << slabShift
	if n < tableSlab {
		h.table, h.slabLeft = t+uint32(n), uint32(len(slab)-n)
	}
	return t
}

// RemoteKey identifies a window of a remote memory region for RDMA.
type RemoteKey struct {
	MR     *MR
	Offset int
}

func (r RemoteKey) String() string {
	return fmt.Sprintf("mr%d+%d@node%d", r.MR.id, r.Offset, r.MR.hca.node)
}

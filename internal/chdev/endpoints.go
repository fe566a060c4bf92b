package chdev

import (
	"cmp"
	"fmt"
	"slices"
	"unsafe"

	"ibflow/internal/ib"
)

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
// its (peer, ep) position; static wiring only ever appends. A full list
// moves to a run of twice its capacity from the world's table slab
// (endSlab.table) and leaves its old run there, cleared.
func (d *Device) addConn(c *conn) {
	key := func(c *conn) int { return int(c.peer)*d.cfg.Endpoints + int(c.ep) }
	i, _ := slices.BinarySearchFunc(d.live, key(c), func(e *conn, k int) int {
		return cmp.Compare(key(e), k)
	})
	if len(d.live) == cap(d.live) {
		grown := append(d.ends.table(max(1, 2*cap(d.live))), d.live...)
		clear(d.live)
		d.live = grown
	}
	d.live = slices.Insert(d.live, i, c)
}

// eps returns the endpoint set toward peer — cfg.Endpoints consecutive
// entries of the live list — or nil if the peer is not connected. It is
// the send path's lookup: a binary search over what is established, where
// a table indexed by rank cost every device the job size.
func (d *Device) eps(peer int) []*conn {
	i, ok := slices.BinarySearchFunc(d.live, peer, func(c *conn, peer int) int {
		return cmp.Compare(int(c.peer), peer)
	})
	if !ok {
		return nil
	}
	return d.live[i : i+d.cfg.Endpoints]
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
	if d.cfg.Endpoints == 1 {
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
	n, epN := len(devs), devs[0].cfg.Endpoints
	ends := &endSlab{left: n * (n - 1) * epN}
	for _, d := range devs {
		d.peers, d.ends = devs, ends
	}
	if devs[0].cfg.OnDemand {
		return
	}
	for _, d := range devs {
		d.pool.Warm()
		d.live = ends.table((n - 1) * epN)
	}
	for i := range devs {
		for j := i + 1; j < len(devs); j++ {
			establish(devs[i], devs[j])
		}
	}
}

// endSlabBytes is how much host memory a world takes at a time for its
// connection ends, and at most for its live lists' backing: the largest
// small-object size class, so a slab is one allocation with no size-class
// slack beyond a part of one end.
const endSlabBytes = 32 << 10

// tableMin and tableMax bound the live-list entries of a table slab
// (endSlab.table): a 2-rank world's two lists of one fit one 32-B slab,
// and no slab takes more than endSlabBytes unless one run asks for more.
const (
	tableMin = 4
	tableMax = endSlabBytes / int(unsafe.Sizeof((*conn)(nil)))
)

// endSlab carves the connection ends of one world, as HCA.commit carves
// ring slots from pages: a pair's two endpoint sets are adjacent in it, a
// slab holds whole pair-sets, and no end is handed out twice or moved.
// A new slab holds what the world can still establish, if that is less
// than endSlabBytes' worth, so a statically wired world gets exactly the
// ends it uses and any world leaves at most one slab partly unused. The
// devices of a world share it; the engine serializes them.
//
// It also backs the devices' live lists (table): a list that outgrows its
// run takes one twice as long from the current table slab, so a device's
// k-th establishment allocates nothing of its own. A new table slab is as
// large as every one made before it together, between tableMin and
// tableMax entries (or the one run asked for), and an outgrown run stays
// in its slab: the runs a list outgrows add up to fewer entries than it
// holds (1 + 2 + … + c/2 < c), too little to keep a free list for.
type endSlab struct {
	free []conn // the rest of the current slab
	left int    // ends the world has yet to establish

	runs []*conn // the rest of the current table slab
	made int     // entries in every table slab made so far
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

// table returns an empty live list of capacity n from the table slab.
func (s *endSlab) table(n int) []*conn {
	if len(s.runs) < n {
		per := max(n, min(max(tableMin, s.made), tableMax))
		s.runs = make([]*conn, per)
		s.made += per
	}
	run := s.runs[:0:n]
	s.runs = s.runs[n:]
	return run
}

// establish creates the endpoint set — Config.Endpoints QP pairs and
// virtual channels — between two devices and returns a's. The two sets
// are 2·Endpoints adjacent ends of the world's slab, a's then b's: the
// conns hold their QP, VC and landing region by value and are pointed
// into from all sides, and the slab never moves them. All QPs
// are made first (a's then b's per endpoint: queue pair numbers follow)
// and connected in index order, then each endpoint's channel state is
// built — at set size 1 the sequence is exactly the pre-endpoint
// establishment. Each end's provisioner sets up its receive resources (a
// before b: regions are numbered in reservation order, and two ranks may
// share an HCA).
func establish(a, b *Device) []*conn {
	n := a.cfg.Endpoints
	if n != b.cfg.Endpoints {
		panic(fmt.Sprintf("chdev: endpoint-set size mismatch: rank %d has %d, rank %d has %d",
			a.rank, n, b.rank, b.cfg.Endpoints))
	}
	pair := a.ends.take(2 * n)
	ea, eb := pair[:n:n], pair[n:]
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
	}
	return a.eps(b.rank)
}

// initConn builds endpoint ep toward peer in c, whose QP is connected,
// and enters it into the device's books.
func (d *Device) initConn(c *conn, peer, ep int) {
	c.peer, c.ep = int32(peer), int32(ep)
	c.vc.Init(&d.params)
	d.addConn(c)
	// A completion names its QP, and the QP its connection.
	c.qp.SetOwner(c)
	// Each direction of each endpoint is a distinct metric series; with
	// on-demand wiring this runs mid-job and the series align via the
	// registry's first-sample offsets.
	c.vc.RegisterMetrics(d.registry(), d.rank, peer, ep)
}

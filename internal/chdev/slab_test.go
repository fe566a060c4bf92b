package chdev

import (
	"testing"
	"unsafe"

	"ibflow/internal/core"
	"ibflow/internal/ib"
	"ibflow/internal/sim"
)

// wiredWorld builds n devices on an n-node fabric and wires them.
func wiredWorld(n int, cfg Config, params core.Params) []*Device {
	eng := sim.NewEngine()
	f := ib.NewFabric(eng, ib.DefaultConfig(), n)
	devs := make([]*Device, n)
	for i := range devs {
		devs[i] = New(eng, f.HCA(i), cfg, params, i, n, &fakeHandler{})
	}
	Wire(devs)
	return devs
}

// checkEndsInPlace asserts that every end of the world is where
// establishment pointed at it: its QP's owner, and its peer end's other
// end, whose ring that peer writes into — pointers taken when its pair
// was established, before the pairs after it.
func checkEndsInPlace(t *testing.T, devs []*Device) {
	t.Helper()
	for _, d := range devs {
		for _, c := range d.live {
			if c.qp.Owner() != c {
				t.Fatalf("rank %d: the end toward %d (ep %d) is not its QP's owner: it moved", d.rank, c.peer, c.ep)
			}
			if remote := devs[c.peer].epAt(d.rank, int(c.ep)); remote.peerEnd() != c {
				t.Fatalf("rank %d: the end toward %d (ep %d) is not its peer's other end: it moved", d.rank, c.peer, c.ep)
			}
		}
	}
}

// An end's address does not change when later pairs are established: the
// world's slab hands it out once and later slabs are new allocations, so
// every pointer establishment took into an end still reaches it — whether
// the world was wired whole or pair by pair, across several slabs.
func TestEndsStayWhereEstablished(t *testing.T) {
	const n = 9 // 72 ends: more than one slab
	params := core.RDMA(4, 256)
	t.Run("static", func(t *testing.T) {
		checkEndsInPlace(t, wiredWorld(n, DefaultConfig(), params))
	})
	t.Run("ondemand", func(t *testing.T) {
		cfg := DefaultConfig()
		cfg.OnDemand = true
		devs := wiredWorld(n, cfg, params)
		first := establish(devs[0], devs[1])[0]
		firstPeer := devs[1].epAt(0, 0)
		for i := range devs {
			for j := i + 1; j < n; j++ {
				if i != 0 || j != 1 {
					establish(devs[i], devs[j])
				}
			}
		}
		if devs[0].epAt(1, 0) != first || devs[1].epAt(0, 0) != firstPeer || first.peer != 1 || firstPeer.peer != 0 {
			t.Fatal("the first pair's ends are not the ones the live lists hold after later pairs")
		}
		checkEndsInPlace(t, devs)
	})
}

// A statically wired world establishes every pair, and each new slab is
// capped at the ends still to come, so none is left spare; each device's
// live list is one run of the table slab, as long as its connections.
func TestStaticWorldLeavesNoSpareEnds(t *testing.T) {
	for _, n := range []int{2, 7, 19} {
		devs := wiredWorld(n, DefaultConfig(), core.Static(2))
		if s := devs[0].ends; s.left != 0 || cap(s.free) != 0 {
			t.Errorf("%d ranks: %d ends still to establish, %d spare in the slab; want 0, 0", n, s.left, cap(s.free))
		}
		for _, d := range devs {
			if len(d.live) != n-1 || cap(d.live) != n-1 {
				t.Fatalf("%d ranks: rank %d's live list holds %d of %d entries, want %d of %d", n, d.rank, len(d.live), cap(d.live), n-1, n-1)
			}
		}
	}
}

// A 2-rank on-demand world can establish one pair, so its slab holds
// exactly that pair's 2 ends, and its two live lists of one take one
// 4-entry table slab, 32 B.
func TestTwoRankWorldGetsTwoEnds(t *testing.T) {
	cfg := DefaultConfig()
	cfg.OnDemand = true
	devs := wiredWorld(2, cfg, core.Static(2))
	if s := devs[0].ends; s.left != 2 || s.free != nil {
		t.Fatalf("before the first connection: %d ends to establish, %d carved; want 2, 0", s.left, cap(s.free))
	}
	establish(devs[0], devs[1])
	if s := devs[0].ends; s.left != 0 || cap(s.free) != 0 {
		t.Errorf("after it: %d ends to establish, %d spare in the slab; want 0, 0", s.left, cap(s.free))
	}
	if s := devs[0].ends; s.made != tableMin || len(s.runs) != tableMin-2 {
		t.Errorf("table slabs made %d entries and %d are left, want %d and %d", s.made, len(s.runs), tableMin, tableMin-2)
	}
}

// At four endpoints a slab holds whole pair-sets of eight ends, so no
// endpoint set straddles two slabs: each pair's sets are eight adjacent
// ends, a's then b's, what is left of a slab is always whole pair-sets,
// and an on-demand world that establishes everything uses every end it
// was given.
func TestEndpointSetsDoNotStraddleSlabs(t *testing.T) {
	const n, epN = 8, 4
	cfg := DefaultConfig()
	cfg.OnDemand = true
	cfg.Endpoints = epN
	devs := wiredWorld(n, cfg, core.Static(2))
	size := unsafe.Sizeof(conn{})
	for i := range devs {
		for j := i + 1; j < n; j++ {
			ea := establish(devs[i], devs[j])
			eb := devs[j].eps(i)
			pair := append(append([]*conn(nil), ea...), eb...)
			for k, c := range pair {
				if uintptr(unsafe.Pointer(c)) != uintptr(unsafe.Pointer(pair[0]))+uintptr(k)*size {
					t.Fatalf("pair (%d,%d): end %d is not adjacent to the pair's first end", i, j, k)
				}
			}
			if rest := len(devs[0].ends.free); rest%(2*epN) != 0 {
				t.Fatalf("after pair (%d,%d) the slab has %d ends left: not whole pair-sets", i, j, rest)
			}
		}
	}
	if s := devs[0].ends; s.left != 0 || cap(s.free) != 0 {
		t.Errorf("%d ends still to establish, %d spare in the slab; want 0, 0", s.left, cap(s.free))
	}
	if got := devs[3].Stats().Conns; got != (n-1)*epN {
		t.Errorf("rank 3 has %d endpoints, want %d", got, (n-1)*epN)
	}
}

package ib

import (
	"testing"

	"ibflow/internal/sim"
)

func fatTreeCfg(radix, oversub int) Config {
	cfg := DefaultConfig()
	cfg.Topology = TopoFatTree
	cfg.LeafRadix = radix
	cfg.Oversub = oversub
	return cfg
}

// fabric2 builds a fabric and one connected QP pair between nodes a and b.
func fabricPair(cfg Config, nodes, a, b int) (*sim.Engine, *Fabric, *QP, *QP, *CQ) {
	eng := sim.NewEngine()
	f := NewFabric(eng, cfg, nodes)
	cqa := f.HCA(a).NewCQ()
	cqb := f.HCA(b).NewCQ()
	qa := f.HCA(a).NewQP(cqa, cqa)
	qb := f.HCA(b).NewQP(cqb, cqb)
	Connect(qa, qb)
	return eng, f, qa, qb, cqb
}

func oneWay(t *testing.T, cfg Config, nodes, a, b int) sim.Time {
	t.Helper()
	eng, _, qa, qb, cqb := fabricPair(cfg, nodes, a, b)
	qb.PostRecv(1, make([]byte, 64))
	var at sim.Time
	rx := newCQWaiter(eng, cqb)
	eng.Go("rx", func(p *sim.Proc) {
		rx.wait(p)
		at = p.Now()
	})
	qa.PostSend(1, make([]byte, 4))
	if err := eng.Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}
	return at
}

func TestFatTreeLatencyByLocality(t *testing.T) {
	cfg := fatTreeCfg(4, 1)
	intra := oneWay(t, cfg, 8, 0, 1) // same leaf
	inter := oneWay(t, cfg, 8, 0, 5) // leaves 0 and 1
	plain := oneWay(t, DefaultConfig(), 8, 0, 5)
	if intra != plain {
		t.Errorf("intra-leaf latency %v differs from crossbar %v", intra, plain)
	}
	want := plain + 2*switchLatency // two extra hops
	if inter != want {
		t.Errorf("inter-leaf latency %v, want %v", inter, want)
	}
}

func TestFatTreeOversubscriptionThrottlesTrunk(t *testing.T) {
	// Nodes 0..3 on leaf 0 all blast nodes 4..7 on leaf 1.
	run := func(oversub int) sim.Time {
		cfg := fatTreeCfg(4, oversub)
		eng := sim.NewEngine()
		f := NewFabric(eng, cfg, 8)
		const n, size = 16, 32 * 1024
		for s := 0; s < 4; s++ {
			cq := f.HCA(s).NewCQ()
			cqr := f.HCA(s + 4).NewCQ()
			tx := f.HCA(s).NewQP(cq, cq)
			rx := f.HCA(s+4).NewQP(cqr, cqr)
			Connect(tx, rx)
			for i := 0; i < n; i++ {
				rx.PostRecv(uint64(i), make([]byte, size))
				tx.PostSend(uint64(i), make([]byte, size))
			}
		}
		if err := eng.Run(sim.MaxTime); err != nil {
			t.Fatal(err)
		}
		return eng.Now()
	}
	full := run(1)
	quarter := run(4)
	if float64(quarter) < 3.0*float64(full) {
		t.Errorf("4:1 oversubscription finished in %v vs %v at 1:1; want ~4x slower", quarter, full)
	}
}

// Adapter loopback never touches the leaf hierarchy: on a fat tree a
// node talking to itself pays no switch latency at all, same as on the
// crossbar.
func TestFatTreeLoopbackSkipsLeaves(t *testing.T) {
	cfg := fatTreeCfg(4, 2)
	ft := oneWay(t, cfg, 8, 2, 2)
	xb := oneWay(t, DefaultConfig(), 8, 2, 2)
	if ft != xb {
		t.Errorf("fat-tree loopback %v differs from crossbar loopback %v", ft, xb)
	}
	direct := oneWay(t, cfg, 8, 2, 3) // same leaf, through the switch
	if ft >= direct {
		t.Errorf("loopback %v not cheaper than an intra-leaf hop %v", ft, direct)
	}
}

// With Oversub larger than the radix the uplink count clamps to one
// trunk link, not zero: trunk serialization stays finite and equals the
// full link time, never more.
func TestFatTreeTrunkClampsToOneUplink(t *testing.T) {
	ttx := func(oversub int) sim.Time {
		eng := sim.NewEngine()
		f := NewFabric(eng, fatTreeCfg(2, oversub), 4)
		return f.trunkTx(4096)
	}
	one := ttx(2)     // 2/2 = exactly one uplink
	clamped := ttx(8) // 2/8 -> clamped to one uplink
	if clamped != one {
		t.Errorf("8:1 trunk serialization %v, want the single-uplink value %v", clamped, one)
	}
	if half := ttx(1); half != one/2 {
		t.Errorf("1:1 trunk %v not half the single-uplink %v (2 uplinks share the load)", half, one)
	}
}

// Cross-leaf RC traffic between every leaf pair lands intact and in
// order, exercising the up/down trunk path with payloads large enough
// to serialize on the trunk.
func TestFatTreeCrossLeafAllPairs(t *testing.T) {
	cfg := fatTreeCfg(2, 2)
	eng := sim.NewEngine()
	f := NewFabric(eng, cfg, 6) // leaves {0,1} {2,3} {4,5}
	type ep struct {
		cq *CQ
		n  int
	}
	var recvs []ep
	for _, pair := range [][2]int{{0, 2}, {2, 4}, {4, 0}, {1, 5}} {
		a, b := pair[0], pair[1]
		cqa := f.HCA(a).NewCQ()
		cqb := f.HCA(b).NewCQ()
		qa := f.HCA(a).NewQP(cqa, cqa)
		qb := f.HCA(b).NewQP(cqb, cqb)
		Connect(qa, qb)
		for i := 0; i < 3; i++ {
			qb.PostRecv(uint64(i), make([]byte, 8*1024))
			qa.PostSend(uint64(i), make([]byte, 8*1024))
		}
		recvs = append(recvs, ep{cqb, 3})
	}
	if err := eng.Run(sim.MaxTime); err != nil {
		t.Fatal(err)
	}
	for i, r := range recvs {
		for j := 0; j < r.n; j++ {
			wc, ok := r.cq.Poll()
			if !ok || wc.Opcode != OpRecvComplete || wc.WRID != uint64(j) {
				t.Fatalf("pair %d recv %d = %+v ok=%v (cross-leaf order broken)", i, j, wc, ok)
			}
		}
	}
}

func TestFatTreeValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("fat tree without radix accepted")
		}
	}()
	cfg := DefaultConfig()
	cfg.Topology = TopoFatTree
	NewFabric(sim.NewEngine(), cfg, 4)
}

func TestTopologyStrings(t *testing.T) {
	if TopoCrossbar.String() != "crossbar" || TopoFatTree.String() != "fat-tree" {
		t.Error("topology strings")
	}
}

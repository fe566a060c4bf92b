package ib

import "ibflow/internal/sim"

// Topology selects the fabric interconnect model.
type Topology int

const (
	// TopoCrossbar is a single non-blocking switch: every pair of ports
	// communicates at full link rate (the paper's 8-port InfiniScale).
	TopoCrossbar Topology = iota
	// TopoFatTree is a two-level tree: nodes attach to leaf switches of
	// LeafRadix ports; leaves connect upward through a trunk whose
	// capacity is LeafRadix/Oversub links. Traffic between leaves
	// contends for the trunk — the regime large clusters live in.
	TopoFatTree
)

func (t Topology) String() string {
	if t == TopoFatTree {
		return "fat-tree"
	}
	return "crossbar"
}

// leafSwitch carries the shared trunk serialization points of one leaf,
// one link per rail.
type leafSwitch struct {
	up   []link
	down []link
}

// leafOf returns the leaf switch index of a node.
func (f *Fabric) leafOf(node int) int {
	if f.cfg.Topology != TopoFatTree || f.cfg.LeafRadix <= 0 {
		return 0
	}
	return node / f.cfg.LeafRadix
}

// trunkTx returns the serialization time of n payload bytes on a leaf's
// uplink trunk (Oversub uplinks fewer than down ports ⇒ proportionally
// less aggregate capacity).
func (f *Fabric) trunkTx(n int) sim.Time {
	cfg := &f.cfg
	upLinks := cfg.LeafRadix / cfg.Oversub
	if upLinks < 1 {
		upLinks = 1
	}
	return txTime(n) / sim.Time(upLinks)
}

// deliverTo routes one message of wire time tx from src to dst on rail,
// firing h.OnEvent(0) once the message reaches the destination port —
// "stage 0" by convention: the handler reserves the rail's ingress link
// and charges the receive overhead itself (see wireEvent in qp.go). start
// is when the first bit leaves the source port.
//
// Crossbar and intra-leaf paths cross one switch; inter-leaf fat-tree
// paths additionally reserve the source leaf's uplink trunk and the
// destination leaf's downlink trunk on rail (cut-through: trunk
// reservations model contention, the serialization latency is charged
// once at the destination port). Every hop schedules through a bound
// handler — the trunk hops through a recycled trunkEvent — so the whole
// path is allocation-free at steady state.
func (f *Fabric) deliverTo(src, dst *HCA, rail int32, start, tx sim.Time, n int, h sim.Handler) {
	eng := f.eng
	cfg := &f.cfg

	if cfg.Faults != nil {
		// The injector sees the wire-entry time, not the posting time, so
		// it can keep per-pair delivery order (RC links never reorder).
		start += cfg.Faults.MessageDelay(start, src.node, dst.node, n+headerBytes)
	}

	if src == dst {
		// Adapter loopback: no switch crossed.
		eng.AtCall(start, h, 0)
		return
	}
	if cfg.Topology != TopoFatTree || f.leafOf(src.node) == f.leafOf(dst.node) {
		eng.AtCall(start+switchLatency, h, 0)
		return
	}

	te := f.trunks.Get()
	*te = trunkEvent{
		f:    f,
		up:   &f.leaves[f.leafOf(src.node)].up[rail],
		down: &f.leaves[f.leafOf(dst.node)].down[rail],
		ttx:  f.trunkTx(n),
		h:    h,
	}
	eng.AtCall(start+switchLatency, te, 0)
}

// trunkEvent walks one inter-leaf message across the fat-tree trunk as a
// bound two-stage handler: stage 0 reserves the source leaf's uplink,
// stage 1 reserves the destination leaf's downlink, hands off to the
// destination-port handler, and returns itself to the fabric's pool. One
// trunkEvent is live per in-flight inter-leaf message, so returning it
// after the final hop is safe.
type trunkEvent struct {
	f    *Fabric
	up   *link // the source leaf's uplink on the message's rail
	down *link // the destination leaf's downlink on the message's rail
	ttx  sim.Time
	h    sim.Handler
}

func (te *trunkEvent) OnEvent(stage uint64) {
	eng := te.f.eng
	lat := switchLatency
	if stage == 0 {
		upStart := te.up.reserve(eng.Now(), te.ttx)
		eng.AtCall(upStart+lat, te, 1)
		return
	}
	dnStart := te.down.reserve(eng.Now(), te.ttx)
	eng.AtCall(dnStart+lat, te.h, 0)
	te.h = nil // a pooled hop must not pin the message's handler
	te.f.trunks.Put(te)
}

// Package ib models an InfiniBand fabric with the Reliable Connection (RC)
// transport at message granularity, faithful to the mechanisms that matter
// for MPI flow control:
//
//   - queue pairs with strict FIFO ordering and a bounded in-flight window,
//   - channel semantics (send consumes a pre-posted receive descriptor),
//   - memory semantics (RDMA write/read, no receive descriptor consumed),
//   - Receiver-Not-Ready NAKs with a timed retry (go-back-N rewind),
//   - per-HCA link serialization at both egress and ingress, so converging
//     senders contend for the receiver's link,
//   - completion queues shared across queue pairs.
//
// The model runs on the deterministic discrete-event core in internal/sim.
// Default timings are calibrated to the paper's testbed (Mellanox InfiniHost
// MT23108 4x HCAs behind PCI-X 133): ~7.5 us small-message MPI latency and
// ~860 MB/s peak bandwidth.
package ib

import (
	"ibflow/internal/metrics"
	"ibflow/internal/sim"
	"ibflow/internal/trace"
)

// FaultInjector perturbs the fabric at three well-defined points, called
// from inside the serialized event loop once NewFabric has bound it, so a
// deterministic implementation (internal/fault.Plan) yields bit-identical
// runs per seed. A nil injector means a fault-free fabric.
type FaultInjector interface {
	// Bind is NewFabric's one call, before anything runs: the fabric's
	// node count and its tracer (nil when untraced).
	Bind(nodes int, tr *trace.Buffer)
	// MessageDelay returns extra path latency for one message of n wire
	// bytes from node src to node dst (jitter, link outages).
	MessageDelay(now sim.Time, src, dst, n int) sim.Time
	// ForceRNR reports whether a delivery at node should be NAKed as
	// receiver-not-ready even though a buffer is posted.
	ForceRNR(now sim.Time, node int) bool
	// AckDelay returns extra latency before a WQE's acknowledgement
	// retires it (a delayed completion event).
	AckDelay(now sim.Time) sim.Time
}

// The fabric's timings, calibrated to the paper's 8-node testbed. They
// are constants: no figure, table or benchmark varies them.
const (
	// linkBytesPerSec is the effective point-to-point bandwidth: the
	// minimum of the 4x link rate (10 Gb/s) and the PCI-X 64/133 bus the
	// paper's HCAs sat behind (~860 MB/s after overheads).
	linkBytesPerSec = 860e6

	// headerBytes is the per-message wire overhead (LRH+GRH+BTH+ICRC...).
	headerBytes = 66

	// switchLatency is the one-way fixed latency through the switch,
	// including propagation.
	switchLatency = 500 * sim.Nanosecond

	// sendOverhead is per-WQE processing at the sender HCA (doorbell,
	// descriptor fetch, DMA setup).
	sendOverhead = 600 * sim.Nanosecond

	// recvOverhead is per-message processing at the receiver HCA
	// (descriptor consumption, DMA into host memory, CQE write).
	recvOverhead = 700 * sim.Nanosecond

	// ackLatency is the time from successful delivery until the sender
	// HCA retires the WQE and posts the send completion.
	ackLatency = 900 * sim.Nanosecond

	// rnrTimeout is how long a sender waits after a Receiver-Not-Ready
	// NAK before retrying, the same for every retry. Real HCAs quantize
	// it; the paper relies on it for the hardware-based flow control
	// scheme.
	rnrTimeout = 80 * sim.Microsecond

	// sendWindow is the most unacknowledged messages a queue pair keeps
	// in flight (the packet window / send queue depth).
	sendWindow = 8

	// registerBase and registerPerPage model memory registration
	// (pinning) cost; pageSize is the pinning granularity.
	registerBase    = 25 * sim.Microsecond
	registerPerPage = 350 * sim.Nanosecond
	pageSize        = 4096
)

// Config holds the fabric's protocol parameters and topology.
type Config struct {
	// RNRRetryCount limits RNR retries per WQE; negative means infinite
	// (the paper sets it to infinite so the MPI level stays reliable).
	RNRRetryCount int

	// Topology, LeafRadix and Oversub select the interconnect model:
	// the default crossbar (the paper's single switch), or a two-level
	// fat tree of LeafRadix-port leaf switches whose uplink trunks are
	// Oversub-to-1 oversubscribed (the large-cluster extension).
	Topology  Topology
	LeafRadix int
	Oversub   int

	// Rails is the number of parallel links behind every port (HCA
	// egress/ingress and fat-tree trunk attachment points). Multi-rail
	// adapters are how large clusters keep per-node injection bandwidth
	// ahead of fan-in. A connection keeps the one rail Connect gives it,
	// so rails spread traffic across QPs, never inside one. 0 or 1 means
	// the classic single-rail port.
	Rails int

	// Tracer, Metrics and Faults are the world's observers, attached
	// here once: the devices read them from the fabric (HCA.Fabric).
	// Tracer, when non-nil, records the transport's events (RNR NAKs,
	// retransmissions; node numbers in the rank fields) and the devices'.
	Tracer *trace.Buffer

	// Metrics, when non-nil, receives every layer's series (see
	// internal/metrics), read only at sampling instants; hot paths are
	// untouched. A registry belongs to exactly one world.
	Metrics *metrics.Registry

	// Faults, when non-nil, injects latency jitter, link outages, forced
	// RNR NAKs and delayed acks, and ECM faults where it is a
	// *fault.Plan, the one injector the channel device asks about ECMs
	// (see internal/fault). NewFabric binds it.
	Faults FaultInjector
}

// DefaultConfig returns the paper's protocol settings on its crossbar.
func DefaultConfig() Config {
	return Config{RNRRetryCount: -1}
}

// txTime returns the wire serialization time for a payload of n bytes.
func txTime(n int) sim.Time {
	bytes := float64(n + headerBytes)
	return sim.Time(bytes / linkBytesPerSec * 1e9)
}

// RegTime returns the cost of registering (pinning) n bytes.
func RegTime(n int) sim.Time {
	if n <= 0 {
		return registerBase
	}
	pages := (n + pageSize - 1) / pageSize
	return registerBase + sim.Time(pages)*registerPerPage
}

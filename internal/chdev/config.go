// Package chdev implements the ADI2-style channel device of the paper's
// MPI: per-connection virtual channels over InfiniBand RC queue pairs,
// the eager and rendezvous protocols, a pool of pre-pinned 2 KB buffers,
// a pin-down cache for zero-copy rendezvous, piggybacked and explicit
// credit returns, and the progress engine. Flow control decisions are
// delegated to internal/core; transport to internal/ib.
package chdev

import (
	"ibflow/internal/metrics"
	"ibflow/internal/sim"
	"ibflow/internal/trace"
)

// ECMFaults injects failures into the explicit-credit-message path. Both
// methods are called from inside the serialized event loop, so a
// deterministic implementation (internal/fault.Plan) keeps runs
// bit-identical per seed. A nil injector means no ECM faults.
type ECMFaults interface {
	// DropECM reports whether the ECM from rank to peer fails before
	// reaching the wire. The device keeps the owed credits and re-issues
	// after another silence interval.
	DropECM(now sim.Time, rank, peer int) bool
	// DuplicateECM reports whether a successfully sent ECM should be
	// followed by a spurious zero-credit duplicate.
	DuplicateECM(now sim.Time, rank, peer int) bool
}

// The channel device's host-side (software) costs, calibrated so the full
// MPI stack reproduces the paper's ~7.5 us small-message latency over the
// default fabric model. They are constants: no figure, table or benchmark
// varies them.
const (
	// swSend and swRecv are the per-message software overheads of the
	// MPI library (tag matching, descriptor management) on each side.
	// swRecvCtrl is the cheaper receive path for control packets
	// (RTS/CTS/FIN/credit), which skip matching and payload copy-out.
	// The receive path costs slightly more than the send path
	// (matching, copy-out, re-post bookkeeping) — as on the real
	// testbed, a sender can outrun a receiver, which is what
	// exhausts pre-posted buffers and makes flow control matter.
	swSend     = 2200 * sim.Nanosecond
	swRecv     = 2500 * sim.Nanosecond
	swRecvCtrl = 1800 * sim.Nanosecond

	// swRecvRDMA is the receive overhead of the ring scheme's
	// (core.KindRDMA) RDMA-write eager channel, the authors' companion
	// ICS'03 design: the sender writes into persistent receiver-side
	// slots, detected by memory polling (modelled as a notify
	// completion) — cheaper than swRecv, no receive descriptor handling.
	swRecvRDMA = 1900 * sim.Nanosecond

	// memcpyBytesPerSec is the host copy bandwidth charged for staging
	// eager payloads through the pre-pinned buffers.
	memcpyBytesPerSec = 1.6e9

	// connSetup is the one-time latency of an on-demand connection
	// (Config.OnDemand).
	connSetup = 40 * sim.Microsecond

	// ecmSilence implements the paper's "send an explicit credit
	// message only when there is still no message sent by the MPI
	// layer": owed credits above the threshold are flushed in an ECM
	// only after the connection has had no outgoing traffic for this
	// long (piggybacking always gets the first chance).
	ecmSilence = 50 * sim.Microsecond

	// ctrlPrepost is the fixed pool of send/receive descriptors the
	// ring scheme keeps per connection for control traffic.
	ctrlPrepost = 8

	// reissueDelay is how long a QP stays frozen after the transport
	// reports RNR budget exhaustion before its stream is re-issued; sends
	// posted meanwhile queue on the QP behind the failed one.
	reissueDelay = 100 * sim.Microsecond

	// bufSize is the size of a pre-pinned communication buffer, the
	// paper's 2 KB: every posted receive is charged bufSize bytes.
	bufSize = 2048

	// eagerThreshold is the largest payload that still fits a pre-pinned
	// buffer behind the packet header; larger messages use the
	// rendezvous protocol.
	eagerThreshold = bufSize - HeaderSize
)

// Config holds the channel device's settings and observability hooks.
type Config struct {
	// OnDemand delays connection (and buffer) setup until two ranks
	// first communicate — the scalability extension discussed in the
	// paper's related work. Each setup costs connSetup.
	OnDemand bool

	// Tracer, when non-nil, records protocol events (sends, arrivals,
	// starvation, growth, transport retries) on the virtual timeline.
	// All devices of a job share one buffer.
	Tracer *trace.Buffer

	// Metrics, when non-nil, receives per-connection flow control
	// gauges/counters (registered as connections are established),
	// per-rank buffer-pool gauges and rendezvous latency histograms (see
	// internal/metrics). All devices of a job share one registry.
	Metrics *metrics.Registry

	// Debug enables per-progress invariant checking.
	Debug bool

	// Faults, when non-nil, injects explicit-credit-message drops and
	// duplications (see internal/fault).
	Faults ECMFaults

	// Endpoints is the number of independent VC/QP endpoints per rank
	// pair (Zambre et al.'s communication endpoints for MPI+threads).
	// Each endpoint owns its own scheme state — credits, ring, or a
	// share of the device's pool — and logical worker threads are
	// pinned to the set's endpoints (tid mod Endpoints), which preserves
	// MPI's per-pair non-overtaking order for traffic within a thread. 0
	// or 1 means the classic single connection per pair, byte-identical
	// to the pre-endpoint device.
	Endpoints int
}

// DefaultConfig returns the paper's device: one endpoint per rank pair,
// connections wired at start-up.
func DefaultConfig() Config {
	return Config{}
}

// copyTime returns the virtual time charged for copying n bytes.
func copyTime(n int) sim.Time {
	if n <= 0 {
		return 0
	}
	return sim.Time(float64(n) / memcpyBytesPerSec * 1e9)
}

// Package core implements the paper's contribution: the three flow control
// schemes for MPI over InfiniBand Reliable Connections.
//
//   - Hardware-based: no MPI-level bookkeeping; every message is posted
//     directly and the HCA's RNR NAK / timed-retry machinery throttles a
//     fast sender.
//   - User-level static: credit-based flow control with a fixed number of
//     pre-posted receive buffers per connection. Credits flow back by
//     piggybacking on every message header and, for asymmetric patterns,
//     by explicit credit messages (ECMs) once a threshold accumulates.
//   - User-level dynamic: starts each connection with a small pre-post
//     count and grows it when feedback flags ("this message was starved /
//     went through the backlog") arrive, adapting buffer usage to the
//     application's communication pattern.
//
// Two more schemes extend the paper along its own scalability concern:
//
//   - Shared: receive buffers come from one SRQ-backed pool serving all
//     connections (KindShared). Senders post optimistically like the
//     hardware scheme; the receiver replenishes the pool when the SRQ's
//     low-watermark limit event fires, so receive memory tracks the
//     aggregate arrival rate instead of the connection count.
//   - RDMA ring: eager data is written into a persistent per-connection
//     ring of pre-registered slots (KindRDMA). A free slot is the credit
//     and the receiver's head pointer is what flows back, piggybacked on
//     reverse traffic or in an explicit sync; no receive descriptor is
//     consumed by eager data at all.
//
// The package is pure bookkeeping: it decides, counts and enforces
// invariants. The channel device (internal/chdev) owns the actual buffers,
// packets and progress engine and consults a VC (virtual channel) for every
// decision — may this send go, may the backlog drain, what came back, is an
// explicit return due. A VC answers the same calls under all five schemes:
// from its credits, from nothing at all (hardware, shared), or from the two
// Rings it owns under KindRDMA. Pool is the shared scheme's receive-side
// ledger, device-wide rather than per channel.
package core

import (
	"fmt"

	"ibflow/internal/sim"
)

// Kind selects a flow control scheme: the paper's three, the SRQ-backed
// shared-pool extension, or the RDMA-write ring.
type Kind int

const (
	// KindHardware relies entirely on InfiniBand end-to-end flow control.
	KindHardware Kind = iota
	// KindStatic is user-level credit-based flow control with a fixed
	// pre-post count.
	KindStatic
	// KindDynamic is user-level credit-based flow control that grows the
	// pre-post count from feedback.
	KindDynamic
	// KindShared provisions receive buffers from one SRQ-backed pool
	// shared across all connections instead of per-channel credits:
	// senders post optimistically (as in the hardware scheme) and the
	// receiver replenishes the pool when a low-watermark limit event
	// fires, decoupling receive memory from the connection count.
	KindShared
	// KindRDMA moves eager data over a persistent per-connection ring of
	// pre-registered RDMA-write slots (the MPICH2-over-InfiniBand design
	// that followed the paper): the sender owns the ring tail, the
	// receiver owns the head, credits return by piggybacking the head
	// pointer on reverse-direction traffic (with an explicit sync when
	// the reverse path is idle), and large messages use an RDMA-read
	// rendezvous. No receive descriptors are consumed by eager data at
	// all, so receive posting and flow control are fully decoupled.
	KindRDMA
)

func (k Kind) String() string {
	switch k {
	case KindHardware:
		return "hardware"
	case KindStatic:
		return "static"
	case KindDynamic:
		return "dynamic"
	case KindShared:
		return "shared"
	case KindRDMA:
		return "rdma"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// ecmThreshold is the accumulated-credit count that triggers an explicit
// credit message when piggybacking has no traffic to ride on; the paper
// uses 5. The effective threshold is capped at the current pre-post
// count, otherwise a pre-post of 1 could never return its only credit and
// the job would deadlock.
const ecmThreshold = 5

// growthCooldown paces growth, of a dynamic VC and of the shared pool
// alike: starvation feedback or a limit event arriving within the
// cooldown of the previous increase is ignored, so a single burst does
// not trigger one increase per message.
const growthCooldown = 10 * sim.Microsecond

// Params configures a flow control scheme for every connection of a job.
// A scheme is what its constructor and its spec text say: every field a
// kind reads is an argument of that kind's constructor, and Validate
// rejects a field the kind does not read.
type Params struct {
	Kind Kind

	// Prepost is the per-connection receive buffer count: fixed for the
	// hardware and static schemes, the starting point for dynamic, the
	// pool's starting size for shared and the slot count per direction
	// for rdma.
	Prepost int

	// Max caps growth, of a dynamic VC's pre-post count or of the shared
	// pool (dynamic and shared only).
	Max int

	// SlotBytes is the RDMA ring scheme's per-slot buffer size: the
	// eager threshold on that channel is SlotBytes minus the packet
	// header (rdma only).
	SlotBytes int
}

// Hardware returns parameters for the hardware-based scheme.
func Hardware(prepost int) Params {
	return Params{Kind: KindHardware, Prepost: prepost}
}

// Static returns parameters for the user-level static scheme.
func Static(prepost int) Params {
	return Params{Kind: KindStatic, Prepost: prepost}
}

// Dynamic returns parameters for the user-level dynamic scheme starting at
// prepost buffers, growing linearly by 2 up to max.
func Dynamic(prepost, max int) Params {
	return Params{Kind: KindDynamic, Prepost: prepost, Max: max}
}

// Shared returns parameters for the shared-pool scheme: a pool of
// prepost buffers serving every connection from one SRQ, replenished by
// Prepost/4-sized steps (at least 1) whenever the free count dips below
// the Prepost/4 watermark, up to max buffers total.
func Shared(prepost, max int) Params {
	return Params{Kind: KindShared, Prepost: prepost, Max: max}
}

// RDMA returns parameters for the RDMA-write eager ring scheme: slots
// pre-registered buffers of slotBytes each per direction of every
// connection, polled head/tail, credits piggybacked as the receiver's
// head pointer.
func RDMA(slots, slotBytes int) Params {
	return Params{Kind: KindRDMA, Prepost: slots, SlotBytes: slotBytes}
}

// step is how many buffers one growth adds, derived from the kind alone:
// 2 for dynamic (the paper's linear growth); for the shared pool
// Prepost/4, at least 1, which is also the pool's low watermark
// (Pool.Watermark). The fixed-size schemes never grow.
func (p *Params) step() int {
	switch p.Kind {
	case KindDynamic:
		return 2
	case KindShared:
		return max(1, p.Prepost/4)
	}
	return 0
}

// Validate checks the parameter combination. It fills in nothing: a
// Params that validates is used as it stands.
func (p Params) Validate() error {
	if p.Prepost < 1 {
		return fmt.Errorf("core: prepost %d < 1", p.Prepost)
	}
	switch p.Kind {
	case KindHardware, KindStatic, KindDynamic, KindShared, KindRDMA:
	default:
		return fmt.Errorf("core: unknown scheme kind %d", int(p.Kind))
	}
	grows := p.Kind == KindDynamic || p.Kind == KindShared
	switch {
	case grows && p.Max < p.Prepost:
		return fmt.Errorf("core: %v max %d < initial prepost %d", p.Kind, p.Max, p.Prepost)
	case !grows && p.Max != 0:
		return fmt.Errorf("core: %v scheme does not grow; max %d needs dynamic or shared", p.Kind, p.Max)
	case p.Kind == KindRDMA && p.SlotBytes < 64:
		return fmt.Errorf("core: rdma slot size %d < 64", p.SlotBytes)
	case p.Kind != KindRDMA && p.SlotBytes != 0:
		return fmt.Errorf("core: %v scheme has no ring; slot size %d needs rdma", p.Kind, p.SlotBytes)
	}
	return nil
}

// UserLevel reports whether the scheme tracks per-channel credits at the
// MPI level. The shared scheme is deliberately not user-level: like the
// hardware scheme its senders post optimistically and rely on the RNR
// backstop; what it adds is receiver-side pooling, not sender credits.
func (p *Params) UserLevel() bool { return p.Kind == KindStatic || p.Kind == KindDynamic }

// SharedPool reports whether receive buffers come from a shared SRQ pool
// instead of per-connection queues.
func (p *Params) SharedPool() bool { return p.Kind == KindShared }

// RingChannel reports whether eager data moves over the persistent
// RDMA-write slot ring instead of send/recv descriptors.
func (p *Params) RingChannel() bool { return p.Kind == KindRDMA }

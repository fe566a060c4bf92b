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
type Params struct {
	Kind Kind

	// Prepost is the per-connection receive buffer count: fixed for the
	// hardware and static schemes, the starting point for dynamic.
	Prepost int

	// Increment and Max control dynamic growth: each feedback event adds
	// Increment buffers (the paper's linear growth), up to Max, at most
	// once per growthCooldown.
	Increment int
	Max       int

	// ShrinkIdle enables the paper's future-work credit decrease on the
	// dynamic scheme: after a connection has seen no buffer pressure for
	// this long, the receiver lets the pre-post count decay to
	// ShrinkFloor by not reposting processed buffers. Zero disables
	// shrinking; no other scheme accepts it.
	ShrinkIdle  sim.Time
	ShrinkFloor int

	// PoolWatermark is the shared scheme's low-water threshold: when the
	// free descriptor count of the shared receive pool dips below it, the
	// SRQ limit event fires and the pool grows by Increment (up to Max,
	// paced by growthCooldown). Defaults to Prepost/4, at least 1.
	PoolWatermark int

	// SlotBytes is the RDMA ring scheme's per-slot buffer size: the
	// eager threshold on that channel is SlotBytes minus the packet
	// header. Prepost doubles as the slot count per direction.
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
	return Params{Kind: KindDynamic, Prepost: prepost, Increment: 2, Max: max}
}

// Shared returns parameters for the shared-pool scheme: a pool of
// prepost buffers serving every connection from one SRQ, replenished by
// Prepost/4-sized increments (at least 1) whenever the free count dips
// below the Prepost/4 watermark, up to max buffers total.
func Shared(prepost, max int) Params {
	inc := prepost / 4
	if inc < 1 {
		inc = 1
	}
	return Params{Kind: KindShared, Prepost: prepost, Increment: inc, Max: max}
}

// RDMA returns parameters for the RDMA-write eager ring scheme: slots
// pre-registered buffers of slotBytes each per direction of every
// connection, polled head/tail, credits piggybacked as the receiver's
// head pointer.
func RDMA(slots, slotBytes int) Params {
	return Params{Kind: KindRDMA, Prepost: slots, SlotBytes: slotBytes}
}

// Validate checks the parameter combination and fills defaulted fields.
func (p *Params) Validate() error {
	if p.Prepost < 1 {
		return fmt.Errorf("core: prepost %d < 1", p.Prepost)
	}
	if p.ShrinkIdle > 0 && p.Kind != KindDynamic {
		return fmt.Errorf("core: %v scheme does not shrink; ShrinkIdle needs dynamic", p.Kind)
	}
	switch p.Kind {
	case KindHardware, KindStatic:
		return nil
	case KindShared:
		if p.PoolWatermark == 0 {
			p.PoolWatermark = p.Prepost / 4
			if p.PoolWatermark < 1 {
				p.PoolWatermark = 1
			}
		}
		if p.PoolWatermark < 0 || p.PoolWatermark > p.Prepost {
			return fmt.Errorf("core: pool watermark %d outside [1, prepost %d]", p.PoolWatermark, p.Prepost)
		}
		if p.Increment > 0 && p.Max < p.Prepost {
			return fmt.Errorf("core: shared pool max %d < initial prepost %d", p.Max, p.Prepost)
		}
		return nil
	case KindRDMA:
		if p.SlotBytes < 64 {
			return fmt.Errorf("core: rdma slot size %d < 64", p.SlotBytes)
		}
		return nil
	case KindDynamic:
		if p.Increment < 1 {
			return fmt.Errorf("core: dynamic growth needs increment >= 1, got %d", p.Increment)
		}
		if p.Max < p.Prepost {
			return fmt.Errorf("core: max %d < initial prepost %d", p.Max, p.Prepost)
		}
		if p.ShrinkIdle > 0 && p.ShrinkFloor < 1 {
			return fmt.Errorf("core: shrink floor %d < 1", p.ShrinkFloor)
		}
		return nil
	}
	return fmt.Errorf("core: unknown scheme kind %d", int(p.Kind))
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

package core

import (
	"fmt"

	"ibflow/internal/debug"
	"ibflow/internal/sim"
)

// Action is a VC's decision for an outgoing credit-consuming (eager) send.
type Action int

const (
	// ActionSend means go ahead as an eager message (a credit has been
	// consumed by the decision for user-level schemes).
	ActionSend Action = iota
	// ActionDemote means no credits: send via the rendezvous protocol
	// with the starvation flag set.
	ActionDemote
	// ActionBacklog means no credits: the device must queue the message
	// and drain it in FIFO order as credits return.
	ActionBacklog
	// ActionWait means the ring is full and the sender is blocking:
	// nothing was counted; the device parks the sender on its progress
	// engine until SendReady holds, then decides again non-blocking.
	ActionWait
)

func (a Action) String() string {
	switch a {
	case ActionSend:
		return "send"
	case ActionDemote:
		return "demote"
	case ActionBacklog:
		return "backlog"
	case ActionWait:
		return "wait"
	}
	return fmt.Sprintf("Action(%d)", int(a))
}

// Stats counts flow control events on one virtual channel (one direction of
// one connection). These feed the paper's Tables 1 and 2.
type Stats struct {
	EagerSent    uint64 // eager data messages sent with a credit
	Demoted      uint64 // small sends demoted to rendezvous (starved)
	Backlogged   uint64 // sends that waited in the backlog
	ECMsSent     uint64 // explicit credit messages sent
	MsgsSent     uint64 // all messages sent (data + control), for Table 1
	CreditsPiggy uint64 // credits returned by piggybacking
	CreditsByECM uint64 // credits returned by explicit messages
	GrowthEvents uint64 // dynamic-scheme increases
	MaxPosted    int    // high-water mark of the pre-post count (Table 2)

	// Graceful-degradation counters (fault handling; see internal/fault).
	Reissues       uint64 // sends re-issued after RNR budget exhaustion
	ECMsDropped    uint64 // explicit credit messages lost before the wire
	ECMsDuplicated uint64 // spurious duplicate ECMs injected after a send
}

// VC is the flow control state of one virtual channel: the sender-side
// credit view toward a peer plus the receiver-side buffer accounting for
// traffic from that peer. A connection between ranks A and B has one VC at
// each end. It answers the same decision calls under all five schemes; on
// the ring channel (KindRDMA) the answers come from the ring geometry —
// a free slot is the credit, the receiver's head is what flows back.
type VC struct {
	params *Params

	// Sender side: credits for messages we send to the peer.
	credits int
	backlog int // messages the device is holding for us

	// Receiver side: buffers for messages the peer sends us.
	posted     int // current pre-post target
	owed       int // processed-buffer credits not yet returned
	lastGrowth sim.Time

	// ring is both directions of the ring channel's bookkeeping, held by
	// value so a connection end stays one object; zero (no slots) off
	// KindRDMA.
	ring ringPair

	stats Stats
}

// ringPair is a connection end's two Rings: out is the sender's view of
// the outgoing direction (tail owned here, peer head learned from
// piggybacks), in the receiver's view of the incoming one (head owned
// here, communicated back on reverse traffic).
type ringPair struct{ out, in Ring }

// onRing reports whether this VC answers from the ring geometry.
func (vc *VC) onRing() bool { return vc.ring.out.slots != 0 }

// Init makes *vc the flow control state for one end of a connection, in
// storage the caller owns (the channel device keeps one record per end
// and embeds its VC). Params must have been validated.
func (vc *VC) Init(p *Params) {
	*vc = VC{params: p, posted: p.Prepost}
	if p.UserLevel() {
		// Initial credits equal the peer's initial pre-post count;
		// configuration is uniform across the job, as in the paper.
		vc.credits = p.Prepost
	}
	vc.stats.MaxPosted = vc.posted
	if p.RingChannel() {
		// Prepost doubles as the slot count, uniform across the job like
		// the initial credits above.
		vc.ring = ringPair{out: makeRing(p.Prepost), in: makeRing(p.Prepost)}
	}
}

// NewVC allocates the flow control state for one end of a connection
// (see Init).
func NewVC(p *Params) *VC {
	vc := new(VC)
	vc.Init(p)
	return vc
}

// RingOut returns the outbound ring view (KindRDMA only): the device
// reserves the slot an eager write lands in.
func (vc *VC) RingOut() *Ring { return &vc.ring.out }

// RingIn returns the inbound ring view (KindRDMA only): the device
// reports arrivals and consumed slots.
func (vc *VC) RingIn() *Ring { return &vc.ring.in }

// Credits returns the sender-side credit count (0 for hardware scheme).
func (vc *VC) Credits() int { return vc.credits }

// Owed returns the receiver-side credits waiting to be returned.
func (vc *VC) Owed() int { return vc.owed }

// Posted returns the receiver-side pre-post target for this channel.
func (vc *VC) Posted() int { return vc.posted }

// Stats returns a copy of the channel's counters.
func (vc *VC) Stats() Stats { return vc.stats }

// CountMsg records any outgoing message for the totals in Table 1.
func (vc *VC) CountMsg() { vc.stats.MsgsSent++ }

// NoteReissue records that the device re-issued traffic on this channel
// after the transport's RNR retry budget ran out.
func (vc *VC) NoteReissue() { vc.stats.Reissues++ }

// NoteECMDropped records an explicit credit message lost before the wire.
// The owed credits are untouched — they stay owed and ride the next
// attempt, which is exactly what keeps the conservation law intact.
func (vc *VC) NoteECMDropped() { vc.stats.ECMsDropped++ }

// NoteECMDuplicated records a spurious duplicate ECM sent after a real
// one. The duplicate carries zero credits (TakeECM already cleared owed),
// so applying it twice at the peer cannot mint credit.
func (vc *VC) NoteECMDuplicated() { vc.stats.ECMsDuplicated++ }

// DecideEager decides the fate of an outgoing eager (credit-consuming)
// send. For user-level schemes a returned ActionSend has already consumed
// one credit. blocking distinguishes blocking sends — which can afford to
// wait out a rendezvous handshake and harvest its piggybacked credits (the
// paper's explanation of why blocking beats non-blocking past the credit
// limit), or on a full ring simply wait for a head update (ActionWait) —
// from non-blocking ones, which go to the backlog. A non-empty backlog
// forces ActionBacklog regardless, preserving MPI's non-overtaking order.
func (vc *VC) DecideEager(blocking bool) Action {
	if debug.Enabled {
		defer vc.debugCheck()
	}
	switch {
	case vc.onRing():
		// The flow control IS the ring geometry: a send needs a free slot
		// between the local tail and the peer's last announced head (the
		// device's Reserve takes it).
		if vc.backlog == 0 && vc.ring.out.Free() > 0 {
			vc.stats.EagerSent++
			return ActionSend
		}
		if vc.backlog == 0 && blocking {
			return ActionWait
		}
	case !vc.params.UserLevel():
		vc.stats.EagerSent++
		return ActionSend
	case vc.backlog == 0 && vc.credits > 0:
		vc.credits--
		vc.stats.EagerSent++
		return ActionSend
	case blocking && vc.backlog == 0:
		vc.stats.Demoted++
		return ActionDemote
	}
	vc.queue()
	return ActionBacklog
}

// SendReady reports whether DecideEager would now answer ActionSend: what
// a sender parked by ActionWait waits for.
func (vc *VC) SendReady() bool {
	if vc.onRing() {
		return vc.backlog == 0 && vc.ring.out.Free() > 0
	}
	return !vc.params.UserLevel() || vc.backlog == 0 && vc.credits > 0
}

// queue counts one more message held in the device's backlog.
func (vc *VC) queue() {
	vc.backlog++
	vc.stats.Backlogged++
}

// DecideRTS decides the fate of an outgoing rendezvous-start control
// message for a large message. RTS consumes a credit when one is
// available (it occupies a receiver buffer like any send); at zero
// credits it joins the backlog, which throttles rendezvous floods to the
// pre-post depth — the "handshake makes the pattern symmetric"
// self-regulation of the paper's Figures 7-8. consumed reports whether a
// credit was taken; queue tells the device to backlog the RTS.
func (vc *VC) DecideRTS() (consumed, queue bool) {
	if debug.Enabled {
		defer vc.debugCheck()
	}
	if !vc.params.UserLevel() {
		if vc.backlog == 0 {
			return false, false
		}
		// Without credits an RTS waits only for order: on the ring it
		// must not overtake eager sends waiting for a slot while control
		// traffic rides the descriptor pool. No other scheme without
		// credits ever backlogs.
		vc.queue()
		return false, true
	}
	if vc.backlog == 0 && vc.credits > 0 {
		vc.credits--
		return true, false
	}
	vc.queue()
	return false, true
}

// CanDrainBacklog reports whether the device may send the next backlogged
// eager message (consuming the credit if so; the ring's free slot is taken
// by the device's Reserve). Progress is guaranteed because credits and
// heads always return eventually (piggybacked on handshakes or via an
// optimistic ECM or head sync before the peer blocks). Without credits the
// ring's free slot is the only gate: a backlog without credits exists only
// on the ring.
func (vc *VC) CanDrainBacklog() bool {
	if vc.backlog == 0 || vc.onRing() && vc.ring.out.Free() == 0 {
		return false
	}
	if vc.params.UserLevel() {
		if vc.credits == 0 {
			return false
		}
		vc.credits--
	}
	vc.backlog--
	vc.stats.EagerSent++
	vc.debugCheck()
	return true
}

// DrainRTS reports whether the device may send the backlogged RTS at the
// head of the queue, and whether a credit was consumed for it. Off the
// ring it drains through the eager gate (and, like an eager entry, counts
// EagerSent). A ring RTS queued only for order — control traffic is
// outside the ring's slot accounting — so it drains freely.
func (vc *VC) DrainRTS() (consumed, ok bool) {
	if !vc.onRing() {
		ok = vc.CanDrainBacklog()
		return ok && vc.params.UserLevel(), ok
	}
	if vc.backlog == 0 {
		return false, false
	}
	vc.backlog--
	vc.debugCheck()
	return false, true
}

// BacklogLen returns how many messages the device is holding.
func (vc *VC) BacklogLen() int { return vc.backlog }

// AddCredits adds credits returned by the peer (piggybacked or explicit).
func (vc *VC) AddCredits(n int) {
	if n < 0 {
		panic("core: negative credit return")
	}
	vc.credits += n
	vc.debugCheck()
}

// Returned applies what an arrived packet's header gives back — piggybacked
// credits, and on the ring the peer's receive head — and reports whether
// anything came back, i.e. whether the backlog may have been reopened.
func (vc *VC) Returned(piggyback int, ringHead uint32) bool {
	opened := piggyback > 0
	if opened {
		vc.AddCredits(piggyback)
	}
	if vc.onRing() && vc.ring.out.SeenHead(ringHead) {
		opened = true
	}
	return opened
}

// --- Receiver side -------------------------------------------------------

// BufferProcessed records that the device finished processing an incoming
// message that occupied a pre-posted buffer. consumedCredit says whether
// the sender spent a user-level credit on it (data) or sent it
// optimistically (control). The device reposts the buffer either way.
// now is unread; the benchmark's ladder still passes it.
func (vc *VC) BufferProcessed(consumedCredit bool, now sim.Time) {
	if consumedCredit && vc.params.UserLevel() {
		vc.owed++
		vc.debugCheck()
	}
}

// TakePiggyback returns and clears the owed credits, to ride on an
// outgoing message header.
func (vc *VC) TakePiggyback() int {
	n := vc.owed
	vc.owed = 0
	if n > 0 {
		vc.stats.CreditsPiggy += uint64(n)
	}
	return n
}

// effECMThreshold caps ecmThreshold at the pre-post count so small
// pre-posts can still return credits.
func (vc *VC) effECMThreshold() int {
	t := ecmThreshold
	if t > vc.posted {
		t = vc.posted
	}
	if t < 1 {
		t = 1
	}
	return t
}

// NeedECM reports whether the receive side has accumulated enough
// unreturned state — owed credits, or consumed ring slots the peer has not
// been told about — to justify an explicit return message (no outgoing
// traffic rode it back).
func (vc *VC) NeedECM() bool {
	if vc.onRing() {
		return vc.ring.in.NeedSync()
	}
	return vc.params.UserLevel() && vc.owed >= vc.effECMThreshold()
}

// Unreturned is how much the peer has not been told it may reuse: owed
// credits, or consumed ring slots.
func (vc *VC) Unreturned() int {
	if vc.onRing() {
		return vc.ring.in.Unsynced()
	}
	return vc.owed
}

// PiggybackHead returns the ring head every outgoing packet carries back
// and records it as communicated; 0 off the ring.
func (vc *VC) PiggybackHead() uint32 {
	if !vc.onRing() {
		return 0
	}
	return vc.ring.in.TakeHead(true)
}

// TakeECM returns and clears the owed credits for an explicit credit
// message and counts it.
func (vc *VC) TakeECM() int {
	n := vc.owed
	vc.owed = 0
	vc.stats.ECMsSent++
	vc.stats.CreditsByECM += uint64(n)
	return n
}

// --- Dynamic growth -------------------------------------------------------

// OnStarvedFeedback handles an incoming message flagged as starved or
// backlogged at the sender. For the dynamic scheme it returns how many
// extra buffers the device must post for this peer (already added to the
// pre-post target and to the owed credits so the peer learns about them);
// other schemes return 0.
func (vc *VC) OnStarvedFeedback(now sim.Time) int {
	if debug.Enabled {
		defer vc.debugCheck()
	}
	if vc.params.Kind != KindDynamic {
		return 0
	}
	if vc.lastGrowth > 0 && now-vc.lastGrowth < growthCooldown {
		return 0
	}
	vc.lastGrowth = now
	grow := min(vc.params.step(), vc.params.Max-vc.posted)
	if grow <= 0 {
		return 0
	}
	vc.posted += grow
	vc.owed += grow
	vc.stats.GrowthEvents++
	if vc.posted > vc.stats.MaxPosted {
		vc.stats.MaxPosted = vc.posted
	}
	return grow
}

// debugCheck re-verifies the invariants after every credit mutation when
// built with the ibdebug tag; otherwise it compiles to nothing. The
// cross-endpoint conservation law is the model check's (model_test.go).
func (vc *VC) debugCheck() {
	if debug.Enabled {
		vc.CheckInvariants()
		if vc.params.Kind != KindDynamic {
			debug.Assert(vc.posted == vc.params.Prepost,
				"posted %d drifted from fixed pre-post %d", vc.posted, vc.params.Prepost)
		}
	}
}

// CheckInvariants panics if the bookkeeping went inconsistent; tests and
// the device's debug mode call it.
func (vc *VC) CheckInvariants() {
	if vc.credits < 0 {
		panic(fmt.Sprintf("core: negative credits %d", vc.credits))
	}
	if vc.owed < 0 {
		panic(fmt.Sprintf("core: negative owed %d", vc.owed))
	}
	if vc.backlog < 0 {
		panic(fmt.Sprintf("core: negative backlog %d", vc.backlog))
	}
	if vc.posted < 1 {
		panic(fmt.Sprintf("core: posted %d < 1", vc.posted))
	}
	if vc.owed > vc.posted {
		// Every owed credit is a processed buffer the peer may refill,
		// and every buffer is posted: more owed than posted mints credit.
		panic(fmt.Sprintf("core: owed %d beyond posted %d", vc.owed, vc.posted))
	}
	if vc.params.Kind == KindDynamic && vc.posted > vc.params.Max {
		panic(fmt.Sprintf("core: posted %d beyond max %d", vc.posted, vc.params.Max))
	}
	if vc.onRing() {
		vc.ring.out.CheckInvariants()
		vc.ring.in.CheckInvariants()
	}
}

package chdev

import (
	"ibflow/internal/fault"
	"ibflow/internal/sim"
	"ibflow/internal/trace"
)

// sendReturn posts c's explicit return message — an explicit credit
// message (ECM), or whatever the provisioner makes of it — once c's VC has
// said one is due. It may run from a timer event, so it never charges
// process time.
//
// The ECM faults come from the fabric's injector when it is a *fault.Plan;
// any other injector, or none, injects no ECM faults. An injected drop
// fails the message before the wire: what was owed stays owed (the VC is
// not touched, so NeedECM stays true) and the silence timer re-arms so it
// still flows — a peer may be blocked waiting for exactly this. An
// injected duplicate follows a successful message with a copy that
// carries nothing new, exercising exactly-once application at the
// receiver.
func (d *Device) sendReturn(c *conn) bool {
	now := d.eng.Now()
	faults, _ := d.hca.Fabric().Config().Faults.(*fault.Plan)
	if faults != nil && faults.DropECM(now, d.rank, int(c.peer)) {
		d.tr(trace.ECMDropped, int(c.peer), 0, int64(c.vc.Unreturned()))
		t := d.ecmTimer(c)
		if !t.Armed() {
			t.Reset(ecmSilence)
		}
		return false
	}
	h := d.prov.fillReturn(c, Header{Type: PktCredit, Src: int32(d.rank)})
	d.postCtrl(c, h)
	if faults != nil && faults.DuplicateECM(now, d.rank, int(c.peer)) {
		d.tr(trace.ECMDuplicated, int(c.peer), 0, 0)
		// The original took everything owed, so the duplicate carries zero
		// credits — double-applying it cannot mint credit at the peer —
		// or repeats the same absolute ring head, which the peer treats as
		// stale: duplication cannot free slots twice.
		h.Flags, h.Piggyback = 0, 0
		d.postCtrl(c, h)
	}
	return true
}

// flushCredits sends explicit return messages for connections whose owed
// credits (or unannounced ring head) crossed the threshold with no
// outgoing traffic to ride on. The progress engine calls it when the
// session is about to block — the moment it knows the MPI layer has
// nothing else to say to the peer.
func (d *Device) flushCredits() bool {
	did := false
	for _, c := range d.live {
		if c.vc.NeedECM() && d.maybeSendReturn(c) {
			did = true
		}
	}
	return did
}

// ecmTimer lazily creates the connection's deferred-return timer. The
// timer re-checks the silence gate at expiry and keeps re-arming while
// credits (or ring head) remain owed, so a return message that was
// deferred — or dropped by fault injection — is eventually delivered.
func (d *Device) ecmTimer(c *conn) *sim.Timer {
	if c.ecmTimer == nil {
		c.ecmTimer = sim.NewTimer(d.eng, func() {
			if !c.vc.NeedECM() {
				return
			}
			if d.eng.Now()-c.lastSend >= ecmSilence {
				d.sendReturn(c)
			} else {
				c.ecmTimer.Reset(ecmSilence)
			}
		})
	}
	return c.ecmTimer
}

// maybeSendReturn is the silence gate: the explicit return message goes
// out only if the connection has been outbound-silent for ecmSilence (no
// reverse traffic carried the credits or the head); otherwise it arms a
// timer so they still flow even if this rank stays parked (liveness: a
// peer may be blocked waiting for exactly these credits or ring slots).
func (d *Device) maybeSendReturn(c *conn) bool {
	now := d.eng.Now()
	if now-c.lastSend >= ecmSilence {
		return d.sendReturn(c)
	}
	t := d.ecmTimer(c)
	if !t.Armed() {
		t.Reset(c.lastSend + ecmSilence - now)
	}
	return false
}

// onRetryExhausted handles the transport's typed RNR-exhaustion error:
// graceful degradation instead of a silent stall or a crash. The frozen
// QP kept the failed WQE (and everything behind it, the pool buffer under
// it included) queued, so re-issuing is just ResumeStalled with a fresh
// retry budget after reissueDelay; sends posted meanwhile queue on the
// frozen QP behind it, in post order. The trace counts the head's
// re-issues from 1.
func (d *Device) onRetryExhausted(c *conn) {
	c.reissues++
	d.tr(trace.Reissued, int(c.peer), 0, int64(c.reissues))
	d.eng.AfterCall(reissueDelay, (*reissueEvent)(c), 0)
}

// reissueEvent is a conn as the target of its re-issue event, reissueDelay
// after its QP froze: a handler type over the same memory, so
// RNR-exhaustion recovery schedules without a closure. The frozen QP kept
// everything queued, so re-issuing is just ResumeStalled with a fresh
// retry budget.
type reissueEvent conn

func (re *reissueEvent) OnEvent(uint64) { re.qp.ResumeStalled() }

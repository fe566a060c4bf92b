package chdev

import "fmt"

// Audit verifies the cross-device conservation laws at the end of a run.
// It must be called at quiescence (after MPI finalize settles the job):
// every device idle, every completion drained, every owed credit flushed.
// The invariants checked, per connected pair (A→B direction):
//
//   - zero credit leak: every credit B ever granted is either back in A's
//     sender-side pool or still owed at B awaiting a ride, i.e.
//     A.credits + B.owed == B.posted (user-level schemes);
//   - message conservation: every message A's QP transmitted was accepted
//     by B's QP (Delivered counts first acceptances only);
//   - no stranded work: empty backlogs, no queued WQEs, no rendezvous in
//     flight, no degraded connection;
//   - ring scheme (core.KindRDMA): every slot A reserved arrived at B,
//     A's view of B's head matches what B announced, and each endpoint's
//     own ring law head <= tail <= head + slots holds (per-endpoint half
//     checked in ringProvisioner.audit);
//   - shared-pool scheme: the provisioner's own law — no pooled buffer
//     in use and the SRQ's free count equal to the pool's accounting
//     (the pooled analogue of the credit law, see poolProvisioner.audit);
//   - descriptor conservation on the other two shapes: each connection's
//     receive queue holds exactly the descriptors its scheme accounts for
//     (the VC's posted count; the fixed control quota on the ring);
//   - no host buffer checked out: posted receives are descriptors and
//     hold none, so at quiescence every staging, packet and landing
//     buffer is back in the device's pool.
//
// It returns a descriptive error naming the first violated invariant, or
// nil if every law holds.
func Audit(devs []*Device) error {
	for i, d := range devs {
		if d.rank != i {
			return fmt.Errorf("chdev audit: devs[%d] has rank %d (must be indexed by rank)", i, d.rank)
		}
	}
	for _, d := range devs {
		if !d.Quiescent() {
			return fmt.Errorf("chdev audit: rank %d not quiescent", d.rank)
		}
		if n := d.PendingCompletions(); n > 0 {
			return fmt.Errorf("chdev audit: rank %d has %d unpolled completions", d.rank, n)
		}
		if len(d.sendRndv) > 0 || len(d.recvRndv) > 0 {
			return fmt.Errorf("chdev audit: rank %d: rendezvous still in flight (%d out, %d in)",
				d.rank, len(d.sendRndv), len(d.recvRndv))
		}
		if err := d.prov.audit(); err != nil {
			return err
		}
		if n := d.pool.Outstanding(); n != 0 {
			return fmt.Errorf("chdev audit: rank %d: %d pool buffers still checked out at quiescence", d.rank, n)
		}
		for _, c := range d.live {
			c.vc.CheckInvariants()
			if c.degraded {
				return fmt.Errorf("chdev audit: rank %d -> %d still degraded", d.rank, c.peer)
			}
			if c.backlog.Len() > 0 || c.vc.BacklogLen() > 0 {
				return fmt.Errorf("chdev audit: rank %d -> %d: %d messages stranded in backlog",
					d.rank, c.peer, c.backlog.Len())
			}
			if n := c.qp.QueuedSends(); n > 0 {
				return fmt.Errorf("chdev audit: rank %d -> %d: %d WQEs still queued", d.rank, c.peer, n)
			}

			// The pairwise laws hold endpoint-to-endpoint: endpoint
			// ep of A's set toward B converses only with endpoint ep
			// of B's set toward A.
			rd := devs[c.peer]
			rc := rd.epAt(d.rank, c.ep)
			if rc == nil {
				return fmt.Errorf("chdev audit: rank %d -> %d connected only one way", d.rank, c.peer)
			}
			if d.params.RingChannel() {
				// The ring conservation laws, cross-endpoint: every
				// slot A reserved arrived at B (the write channel loses
				// nothing), and at quiescence A's view of B's head has
				// caught up with everything B announced.
				if got, want := c.ringOut.Tail(), rc.ringIn.Tail(); got != want {
					return fmt.Errorf(
						"chdev audit: ring slot leak on %d -> %d: %d reserved, %d arrived",
						d.rank, c.peer, got, want)
				}
				if got, want := c.ringOut.HeadSeen(), rc.ringIn.HeadSent(); got != want {
					return fmt.Errorf(
						"chdev audit: ring head skew on %d -> %d: sender saw %d, receiver sent %d",
						d.rank, c.peer, got, want)
				}
			}
			if d.params.UserLevel() {
				// The conservation law of the credit-based schemes. It
				// holds through dynamic growth (new buffers mint owed
				// credit) and shrink (buffer and credit destroyed
				// together).
				if got, want := c.vc.Credits()+rc.vc.Owed(), rc.vc.Posted(); got != want {
					return fmt.Errorf(
						"chdev audit: credit leak on %d -> %d: credits %d + owed %d = %d, posted %d",
						d.rank, c.peer, c.vc.Credits(), rc.vc.Owed(), got, want)
				}
			}
			ss, rs := c.qp.Stats(), rc.qp.Stats()
			if ss.MsgsSent != rs.Delivered {
				return fmt.Errorf(
					"chdev audit: message loss on %d -> %d: %d sent, %d delivered",
					d.rank, c.peer, ss.MsgsSent, rs.Delivered)
			}
		}
	}
	return nil
}

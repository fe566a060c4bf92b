package chdev

import "fmt"

// Audit verifies the cross-device conservation laws at the end of a run.
// It must be called at quiescence (after MPI finalize settles the job):
// every device idle, every completion drained, every owed credit flushed.
// The invariants checked, per connected pair (A→B direction):
//
//   - message conservation: every message A's QP transmitted was accepted
//     by B's QP (Delivered counts first acceptances only);
//   - no stranded work: empty backlogs, no queued WQEs (a QP left frozen
//     on RNR exhaustion still holds its stream), no rendezvous in flight;
//   - each VC's own bookkeeping invariants (core.VC.CheckInvariants: no
//     negative count, and on the ring head <= tail <= head + slots);
//   - no host buffer checked out: posted receives are descriptors and
//     hold none, so at quiescence every staging, packet and landing
//     buffer is back in the device's pool;
//   - the transport shape's own laws (provision.go), per device in audit
//     and per pair in auditPair. Per-connection queues: each receive queue
//     holds exactly the descriptors its VC accounts for, and under the
//     user-level schemes zero credit leak — every credit B ever granted is
//     either back in A's sender-side pool or still owed at B awaiting a
//     ride, A.credits + B.owed == B.posted. Shared pool: no pooled buffer
//     in use and the SRQ's free count equal to the pool's accounting (the
//     pooled analogue of the credit law). Ring: every arrived slot
//     consumed, the control quota intact, every slot A reserved arrived at
//     B, and A's view of B's head matches what B announced.
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
		// A rendezvous holds a device busy, so it is named first: every
		// accepted one is in recvRndv until its data is in, pulled or not.
		if len(d.sendRndv) > 0 || len(d.recvRndv) > 0 {
			return fmt.Errorf("chdev audit: rank %d: rendezvous still in flight (%d out, %d in)",
				d.rank, len(d.sendRndv), len(d.recvRndv))
		}
		if !d.Quiescent() {
			return fmt.Errorf("chdev audit: rank %d not quiescent", d.rank)
		}
		if n := d.PendingCompletions(); n > 0 {
			return fmt.Errorf("chdev audit: rank %d has %d unpolled completions", d.rank, n)
		}
		if err := d.prov.audit(); err != nil {
			return err
		}
		if n := d.pool.Outstanding(); n != 0 {
			return fmt.Errorf("chdev audit: rank %d: %d pool buffers still checked out at quiescence", d.rank, n)
		}
		for _, c := range d.live {
			c.vc.CheckInvariants()
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
			rc := rd.epAt(d.rank, int(c.ep))
			if rc == nil {
				return fmt.Errorf("chdev audit: rank %d -> %d connected only one way", d.rank, c.peer)
			}
			if err := d.prov.auditPair(c, rc); err != nil {
				return err
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

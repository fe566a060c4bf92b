package chdev

import (
	"fmt"

	"ibflow/internal/ib"
	"ibflow/internal/sim"
	"ibflow/internal/trace"
)

// This file is the channel device's progress engine as a bound event
// handler. Steady-state traffic — completions, software receive
// overheads, backlog drains, rendezvous control — runs entirely in event
// context on this one machine, which learns of completions by polling
// its CQ or from the CQ's armed notify. The rank's process parks at most
// once per MPI-level progress call and is resumed synchronously through
// a sim.Gate (an inline dispatch, no event) when its request is done.
//
// The machine spends virtual time only by staging AfterCall(d, m, 0) and
// returning. Each "charge:" comment in step marks one of the five sites:
// receive overhead, payload copy, registration, reply header, RTS header.
// Removing or moving one changes the schedule, which the semantic goldens
// in internal/mpi and internal/bench pin byte for byte.

// pstate is the machine's continuation point. States marked "staged"
// are entered from an AfterCall after a virtual-time charge; the rest
// are reached inline within one event.
type pstate int

const (
	// pcIdle: no pass is running. During a waiting session the CQ
	// notify is armed and the next completion wakes the machine here.
	pcIdle pstate = iota
	// pcPoll: pop the next completion, or end the pass.
	pcPoll
	// pcPktCredits (staged: SW receive overhead): apply what the packet
	// returns, then drain the backlog it may have opened.
	pcPktCredits
	// pcPktBody: starvation feedback and the packet-type dispatch.
	pcPktBody
	// pcPktEagerDone (staged: payload copy): complete eager delivery.
	pcPktEagerDone
	// pcAccepted (staged: registration): second phase of a rendezvous
	// accept — the provisioner encodes a reply or moves the transfer itself.
	pcAccepted
	// pcAcceptPost (staged: header copy): post the reply.
	pcAcceptPost
	// pcPktTail: trace, buffer release, descriptor re-post, next completion.
	pcPktTail
	// pcDrain: advance the backlog the packet reopened.
	pcDrain
	// pcDrainPost (staged: header copy): post a drained RTS.
	pcDrainPost
)

// progressMachine is the device's progress engine. One machine per
// device; one session at a time, owned by the rank's process.
type progressMachine struct {
	d *Device

	active bool
	pc     pstate
	// did reports whether the current pass accomplished anything —
	// ProgressOnce's return value.
	did bool
	// pred, when non-nil, makes the session a WaitProgress loop: passes
	// repeat (blocking on the armed CQ when idle) until pred holds. A
	// detached session's pred never holds.
	pred func() bool

	// In-flight packet, valid from pcPktCredits through pcPktTail; c's
	// backlog is the one pcDrain advances.
	c   *conn
	buf []byte
	hdr Header

	// Rendezvous-accept staging (pcAccepted/pcAcceptPost).
	acceptR   *RndvIn
	acceptHdr Header
	acceptPkt []byte

	// drainRTS is a drained RTS staged for pcDrainPost.
	drainRTS []byte
}

// progressSession runs one machine session on the calling process: a
// single pass (pred == nil, ProgressOnce) or a wait-for-pred loop
// (WaitProgress). The first segment runs inline on the
// process's own stack; if any stage charges virtual time — or the
// session must block on the CQ — the machine takes over in event
// context and the process parks in the gate until the session ends.
// It returns whether the final pass accomplished anything.
func (d *Device) progressSession(p *sim.Proc, pred func() bool) bool {
	m := &d.progress
	if m.active {
		panic(fmt.Sprintf("chdev: rank %d: nested progress session", d.rank))
	}
	m.active = true
	m.pred = pred
	m.startPass()
	m.step()
	if m.active {
		d.gate.Wait(p)
	}
	return m.did
}

// Detach starts an open-ended session that no process owns: the first
// pass runs inline on the caller, then the machine drains its own armed
// CQ — poll until empty, flush owed credits, re-arm, sleep — for as long
// as completions keep arriving. A finished rank detaches its device so
// late arrivals (credits, FINs, re-issued streams) are still processed;
// everything the machine waits on is an event, so the job has settled
// exactly when the engine's queue drains. The device accepts no further
// progress calls.
func (d *Device) Detach() {
	m := &d.progress
	if m.active {
		panic(fmt.Sprintf("chdev: rank %d: detach inside a progress session", d.rank))
	}
	m.active = true
	m.pred = func() bool { return false }
	m.startPass()
	m.step()
}

// OnEvent implements sim.Handler: every staged charge and every CQ
// notification re-enters the machine here.
func (m *progressMachine) OnEvent(uint64) { m.step() }

// startPass begins a fresh pass over the CQ.
func (m *progressMachine) startPass() {
	m.did = false
	m.pc = pcPoll
}

// finish ends the session. The machine is reset before the gate opens,
// so the released process may immediately start the next session.
func (m *progressMachine) finish() {
	m.active = false
	m.pred = nil
	m.pc = pcIdle
	if m.d.gate.Waiting() {
		m.d.gate.Release()
	}
}

// step runs the machine until it either stages a virtual-time charge
// (AfterCall and return), goes idle on an armed CQ, or finishes the
// session.
func (m *progressMachine) step() {
	d := m.d
	for {
		switch m.pc {
		case pcIdle:
			if !m.active {
				// Stale notification: the session it was meant for
				// ended before the event fired. Nothing to do.
				return
			}
			// A completion arrived while idle: re-check the
			// predicate, then run a pass.
			if m.pred() {
				m.finish()
				return
			}
			m.startPass()

		case pcPoll:
			wc, ok := d.cq.Poll()
			if !ok {
				// End of pass: finish, run another pass, or go idle.
				d.debugCheckPass()
				if m.pred == nil || m.pred() {
					m.finish() // pred == nil: single pass, ProgressOnce semantics
					return
				}
				if !m.did {
					if !d.flushCredits() {
						// Nothing to do: arm the CQ and go idle; the
						// notify wakes the machine, not the process.
						d.cq.Arm()
						m.pc = pcIdle
						return
					}
					if m.pred() {
						m.finish()
						return
					}
				}
				m.startPass()
				continue
			}
			m.did = true
			switch wc.Opcode {
			case ib.OpSendComplete, ib.OpWriteComplete, ib.OpReadComplete:
				d.retireSend(wc)
				continue
			case ib.OpRecvComplete, ib.OpRecvImm:
			default:
				panic(fmt.Sprintf("chdev: unexpected completion opcode %v", wc.Opcode))
			}
			// An arrival's completion names the QP, and the QP the
			// connection — for every provisioning shape.
			c, ok := wc.QP.Owner().(*conn)
			if !ok {
				panic("chdev: arrival on unknown QP")
			}
			m.c = c
			// Where it landed is the provisioner's to say: the buffer the
			// transport committed for its descriptor, or memory the peer
			// wrote directly. Either way it is released at pcPktTail.
			m.buf = d.prov.landed(c, wc.Buf, wc.Imm)
			m.hdr = DecodeHeader(m.buf)
			m.pc = pcPktCredits
			switch { // charge: the software receive overhead of the arrival
			case wc.Opcode == ib.OpRecvImm:
				// Detected by polling memory: no descriptor handling.
				d.eng.AfterCall(swRecvRDMA, m, 0)
			case m.hdr.Type.Control():
				d.eng.AfterCall(swRecvCtrl, m, 0)
			default:
				d.eng.AfterCall(swRecv, m, 0)
			}
			return

		case pcPktCredits:
			// Every inbound packet piggybacks what the peer can give
			// back — credits, its receive head; either may unblock the
			// backlog, and this is the only place one reopens.
			m.pc = pcPktBody
			if m.c.vc.Returned(int(m.hdr.Piggyback), m.hdr.RingHead) {
				m.pc = pcDrain
			}

		case pcPktBody:
			if m.hdr.Flags&FlagStarved != 0 {
				if grow := m.c.vc.OnStarvedFeedback(d.eng.Now()); grow > 0 {
					d.tr(trace.Grew, m.c.peer, int64(m.c.vc.Posted()))
					d.prepost(m.c, grow)
				}
			}
			switch m.hdr.Type {
			case PktEager:
				d.handler.DeliverEagerStart(int(m.hdr.Src), int(m.hdr.Tag), m.hdr.Comm,
					m.buf[HeaderSize:HeaderSize+int(m.hdr.Len)])
				m.pc = pcPktEagerDone
				// charge: copying the payload out, copyTime(len)
				d.eng.AfterCall(copyTime(int(m.hdr.Len)), m, 0)
				return
			case PktRTS:
				r := d.ins.Get()
				*r = RndvIn{
					Src:       int(m.hdr.Src),
					Tag:       int(m.hdr.Tag),
					Comm:      m.hdr.Comm,
					Len:       int(m.hdr.Len),
					conn:      m.c,
					senderReq: m.hdr.ReqID,
					senderMR:  m.hdr.MRID,
				}
				ubuf, accept := d.handler.DeliverRndvStart(r)
				if !accept {
					m.pc = pcPktTail
					continue
				}
				h, cost, reg := d.acceptStart(r, ubuf)
				m.acceptR, m.acceptHdr = r, h
				m.pc = pcAccepted
				if reg {
					// charge: registering the receive buffer (the pin-down cache's cost)
					d.eng.AfterCall(cost, m, 0)
					return
				}
				continue
			case PktCTS:
				out := d.sendRndvOn(m.c, m.hdr.ReqID, "CTS")
				out.peerReq = m.hdr.PeerReqID
				if len(out.data) == 0 {
					d.sendFin(m.c, out.peerReq)
					d.finishSend(out)
				} else {
					// The one post that leaves lastSend alone: the silence
					// gate has never counted the payload write as traffic.
					mr := m.c.qp.Peer().HCA().LookupMR(int(m.hdr.MRID))
					d.track(m.c)
					m.c.qp.PostWrite(out.id, out.data, ib.RemoteKey{MR: mr})
					d.tr(trace.SendRDMAData, m.c.peer, int64(len(out.data)))
				}
				m.pc = pcPktTail
			case PktFin:
				// Which end a FIN completes depends on who moved the data.
				d.prov.fin(m.c, m.hdr.ReqID)
				m.pc = pcPktTail
			case PktCredit, PktRingSync:
				// What they return was applied at pcPktCredits.
				m.pc = pcPktTail
			default:
				panic(fmt.Sprintf("chdev: bad packet type %v", m.hdr.Type))
			}

		case pcPktEagerDone:
			d.handler.DeliverEagerDone()
			m.pc = pcPktTail

		case pcAccepted:
			m.acceptPkt = d.prov.accepted(m.acceptR, m.acceptHdr)
			m.acceptR = nil
			if m.acceptPkt == nil {
				m.pc = pcPktTail
				continue
			}
			m.pc = pcAcceptPost
			// charge: building the reply's header, copyTime(HeaderSize)
			d.eng.AfterCall(copyTime(HeaderSize), m, 0)
			return

		case pcAcceptPost:
			d.postPacket(m.c, m.acceptPkt, HeaderSize)
			m.acceptPkt = nil
			m.pc = pcPktTail

		case pcPktTail:
			d.tr(trace.Recv, m.c.peer, int64(m.hdr.Type))
			d.prov.processed(m.c, m.buf, &m.hdr)
			m.c, m.buf = nil, nil
			m.pc = pcPoll

		case pcDrain:
			rts, more := d.drainAdvance(m.c)
			if more {
				m.did = true
			}
			if rts == nil {
				m.pc = pcPktBody
				continue
			}
			m.did = true
			m.drainRTS = rts
			m.pc = pcDrainPost
			// charge: building the drained RTS's header, copyTime(HeaderSize)
			d.eng.AfterCall(copyTime(HeaderSize), m, 0)
			return

		case pcDrainPost:
			d.postPacket(m.c, m.drainRTS, HeaderSize)
			m.drainRTS = nil
			m.pc = pcDrain
		}
	}
}

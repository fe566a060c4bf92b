package chdev

import (
	"fmt"

	"ibflow/internal/debug"
	"ibflow/internal/ib"
	"ibflow/internal/sim"
)

// RndvIn is an incoming rendezvous transfer in progress. The device takes
// it from its pool at the RTS and returns it after DeliverRndvDone
// (finishRecv); its name (rndvKey) is never reused, so a recycled object
// is never reachable through an old one.
type RndvIn struct {
	Src, Tag int
	Comm     uint16
	Len      int
	UserData any // free for the MPI layer (the matched request)

	conn     *conn
	seq      uint32 // the RTS's number (Header.Seq)
	senderMR uint32 // source region id from the RTS, for a receiver that pulls
	accepted bool
	pulled   bool // the receiver reads the payload (the ring shape's RDMA read)
	buf      []byte
}

// rndvOut is an outgoing rendezvous transfer in progress, recycled through
// the device's pool from newRndvOut to finishSend.
type rndvOut struct {
	seq     uint32 // the number its end gave the RTS (Header.Seq)
	comm    uint16
	starved bool
	tag     int
	data    []byte
	mr      *ib.MR // registered source region; the RTS carries its id
	token   any
	start   sim.Time // when the rendezvous began, for the latency histogram
}

// rndvKey names rendezvous seq of end c in the device's tables: the end's
// (peer, ep) place, then its RTS's number, so keys sort in post order.
func (d *Device) rndvKey(c *conn, seq uint32) uint64 {
	return uint64(int(c.peer)*d.cfg.Endpoints+int(c.ep))<<32 | uint64(seq)
}

// sendRndvPath routes a message through the rendezvous protocol. The RTS
// occupies a receiver buffer like any other send, so under user-level
// schemes it consumes a credit; at zero credits (or behind a non-empty
// backlog, preserving matching order) it waits in the backlog, which
// throttles rendezvous floods to the pre-post depth — the self-regulation
// the paper observes in Figures 7-8.
func (d *Device) sendRndvPath(p *sim.Proc, c *conn, tag int, comm uint16, data []byte, token any) {
	out := d.newRndvOut(p, c, tag, comm, data, token, false)
	consumed, queue := c.vc.DecideRTS()
	if queue {
		out.starved = true
		c.backlog.Push(backlogEntry{rndv: out})
		return
	}
	d.sendRTS(p, c, out, consumed)
}

// newRndvOut numbers the RTS, registers the source buffer (pin-down
// cached) and creates the outgoing rendezvous state.
func (d *Device) newRndvOut(p *sim.Proc, c *conn, tag int, comm uint16, data []byte, token any, starved bool) *rndvOut {
	c.seqOut++
	out := d.outs.Get()
	*out = rndvOut{seq: c.seqOut, tag: tag, comm: comm, starved: starved,
		data: data, token: token, start: d.eng.Now()}
	d.sendRndv[d.rndvKey(c, out.seq)] = out
	if len(data) > 0 {
		mr, cost := d.regs.Register(data)
		out.mr = mr
		p.Sleep(cost)
	}
	return out
}

// startRndv begins a rendezvous for data (used for large messages and for
// credit-starved demoted small ones).
func (d *Device) startRndv(p *sim.Proc, c *conn, tag int, comm uint16, data []byte, token any, starved bool) {
	out := d.newRndvOut(p, c, tag, comm, data, token, starved)
	d.sendRTS(p, c, out, false)
}

// sendRTS posts the Rendezvous Start control message from process
// context: prepare, charge the header copy, post.
func (d *Device) sendRTS(p *sim.Proc, c *conn, out *rndvOut, consumed bool) {
	buf := d.prepRTS(c, out, consumed)
	p.Sleep(copyTime(HeaderSize))
	d.postPacket(c, buf, HeaderSize)
}

// prepRTS encodes the Rendezvous Start control message. consumed records
// whether a user-level credit backs it; credit-less RTS (a demoted small
// send, or the hardware scheme) is optimistic: InfiniBand's end-to-end
// flow control is the backstop. The RTS names the registered source
// region, so a receiver that pulls needs no CTS round. The caller charges
// the header copy before posting the returned packet.
func (d *Device) prepRTS(c *conn, out *rndvOut, consumed bool) []byte {
	buf := d.pool.GetN(HeaderSize)
	flags := uint8(0)
	if out.starved {
		flags |= FlagStarved
	}
	if consumed {
		flags |= FlagCredit
	}
	h := Header{
		Type:      PktRTS,
		Flags:     flags,
		Comm:      out.comm,
		Src:       int32(d.rank),
		Tag:       int32(out.tag),
		Len:       uint32(len(out.data)),
		Piggyback: uint32(c.vc.TakePiggyback()),
		Seq:       out.seq,
	}
	if out.mr != nil {
		h.MRID = uint32(out.mr.ID())
	}
	h.Encode(buf)
	return buf
}

// AcceptRndv supplies the receive buffer for an announced rendezvous and
// moves the transfer along: the CTS reply carrying the registered
// destination, or whatever the transport shape does instead.
// Process-context path: the MPI layer calls it when a receive posted after
// the RTS finally matches (the in-band accept runs on the progress
// machine, pcPktBody onwards, in the same three steps).
func (d *Device) AcceptRndv(p *sim.Proc, r *RndvIn, buf []byte) {
	d.debugLiveIn(r)
	h, cost, reg := d.acceptStart(r, buf)
	if reg {
		p.Sleep(cost)
	}
	if pkt := d.prov.accepted(r, h); pkt != nil {
		p.Sleep(copyTime(HeaderSize))
		d.postPacket(r.conn, pkt, HeaderSize)
	}
}

// acceptStart validates and records the receive buffer of an announced
// rendezvous, registers it (pin-down cached) and lets the provisioner
// decide what the reply needs before the registration is charged. reg
// reports whether a registration charge of `cost` is due (zero-length
// transfers register nothing); the caller charges it, then hands the
// header to the provisioner's accepted.
func (d *Device) acceptStart(r *RndvIn, buf []byte) (h Header, cost sim.Time, reg bool) {
	if r.accepted {
		panic("chdev: rendezvous accepted twice")
	}
	if len(buf) < r.Len {
		panic(fmt.Sprintf("chdev: rendezvous buffer %d bytes for %d-byte message", len(buf), r.Len))
	}
	r.accepted = true
	r.buf = buf
	var mr *ib.MR
	if reg = r.Len > 0; reg {
		mr, cost = d.regs.Register(buf[:r.Len])
	}
	return d.prov.accept(r, mr), cost, reg
}

// sendFin posts the completion control message of rendezvous seq on c.
// It runs in event context (the FIN follows the RDMA transfer's
// completion) and charges no process time.
func (d *Device) sendFin(c *conn, seq uint32) {
	d.postCtrl(c, Header{
		Type:      PktFin,
		Src:       int32(d.rank),
		Piggyback: uint32(c.vc.TakePiggyback()),
		Seq:       seq,
	})
}

// sendRndvOn returns c's outgoing rendezvous seq, which a packet or a
// completion (what) names; an unknown one panics.
func (d *Device) sendRndvOn(c *conn, seq uint32, what string) *rndvOut {
	out, ok := d.sendRndv[d.rndvKey(c, seq)]
	if !ok {
		panic(fmt.Sprintf("chdev: rank %d -> %d ep %d: %s for unknown rendezvous %d", d.rank, c.peer, c.ep, what, seq))
	}
	d.debugLiveOut(out, seq)
	return out
}

// takeRecvRndv takes c's accepted rendezvous seq out of recvRndv — its
// data is in, as a FIN or a read completion (what) says; an unknown one
// panics.
func (d *Device) takeRecvRndv(c *conn, seq uint32, what string) *RndvIn {
	key := d.rndvKey(c, seq)
	r, ok := d.recvRndv[key]
	if !ok {
		panic(fmt.Sprintf("chdev: rank %d -> %d ep %d: %s for unknown rendezvous %d", d.rank, c.peer, c.ep, what, seq))
	}
	debug.Assert(r.seq == seq, "chdev: rank %d: rendezvous table entry %d holds a recycled object (now %d)",
		d.rank, seq, r.seq)
	delete(d.recvRndv, key)
	return r
}

// finishSend completes c's outgoing rendezvous out: the peer has the
// payload, the user buffer is reusable, and the state goes back to the
// pool — after the upcall, with its references dropped.
func (d *Device) finishSend(c *conn, out *rndvOut) {
	d.debugLiveOut(out, out.seq)
	key := d.rndvKey(c, out.seq)
	if d.sendRndv[key] != out {
		panic(fmt.Sprintf("chdev: rank %d: finishing unknown rendezvous %d", d.rank, out.seq))
	}
	delete(d.sendRndv, key)
	d.rndvHist.ObserveTime(d.eng.Now() - out.start)
	d.handler.SendDone(out.token)
	out.data, out.mr, out.token = nil, nil, nil
	d.outs.Put(out)
}

// finishRecv completes an incoming rendezvous: the payload is in the
// buffer the handler accepted it into. The handler has r until the upcall
// returns; then it is recycled, references dropped, accepted still set —
// a holder that accepts it again panics as for any double accept, until
// the object is handed out anew.
func (d *Device) finishRecv(r *RndvIn) {
	d.debugLiveIn(r)
	d.handler.DeliverRndvDone(r)
	r.UserData, r.conn, r.buf = nil, nil, nil
	d.ins.Put(r)
}

// debugLiveOut asserts, in an ibdebug build, that out is checked out of
// the device's pool and is still the rendezvous the caller knows as seq.
// Every table lookup and every completion that names a rendezvous passes
// through here or through debugLiveIn.
func (d *Device) debugLiveOut(out *rndvOut, seq uint32) {
	if !debug.Enabled {
		return
	}
	debug.Assert(d.outs.Live(out) && out.seq == seq,
		"chdev: rank %d: outgoing rendezvous %d used after it was recycled (object now %d, generation %d)",
		d.rank, seq, out.seq, d.outs.Gen(out))
}

// debugLiveIn is debugLiveOut for an incoming rendezvous, which the
// handler holds too: one kept past DeliverRndvDone is caught at its next
// use. It is named by its RTS's number, from rank Src.
func (d *Device) debugLiveIn(r *RndvIn) {
	if !debug.Enabled {
		return
	}
	debug.Assert(d.ins.Live(r),
		"chdev: rank %d: rendezvous %d from rank %d used after it was recycled (generation %d)",
		d.rank, r.seq, r.Src, d.ins.Gen(r))
}

package core

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"ibflow/internal/sim"
)

// The model check of VC: two connection ends, each a VC (and under
// KindShared the device's Pool), joined by two FIFO channels, explored
// breadth-first over every interleaving of what the applications and the
// channel device do, with each reached state hashed once. The device's
// part is played the way internal/chdev plays it — which packet needs a
// receive descriptor, what each one piggybacks, how a rendezvous runs per
// transport shape — by the small model below; every decision is a call on
// the real VC. What the device does without a choice rides on the step
// that causes it: the backlog drains right after a send queues and after
// an arrival returns something, and a packet lands as soon as its
// receiver has a descriptor for it. DESIGN.md "Model check of core.VC"
// states the laws, the bounds and the mutations each law catches.
//
// The laws, each checked in every reachable state (stuck on the states
// with no successor):
//
//   - stuck: a state with no enabled step has every message delivered,
//     nothing backlogged and nothing in flight;
//   - conservation: on a user-level scheme, per direction, the sender's
//     credits + credit-consuming packets on the wire or landed but
//     unprocessed + credits piggybacked on the way back + the receiver's
//     owed credits == the receiver's posted count (the mid-flight form of
//     chdev's quiescent credit audit);
//   - descriptors: free receive descriptors + landed packets holding one
//     == what the receiver accounts for (its VC's posted count, its
//     Pool's, or the ring's control quota);
//   - fifo: the VC's backlog count equals the model's backlog queue, and
//     each direction's messages arrive (eager data or RTS) in send order;
//   - ring: no write is admitted without a free slot, no inbound slot is
//     written again before it was consumed, and an arrival is found in
//     the slot its write went to;
//   - growth: a VC's or Pool's posted count never falls and stays within
//     Max;
//   - invariants: VC.CheckInvariants (and Pool's) holds on both ends; a
//     panic anywhere in core during a step counts here too.

// modelCtrlPrepost is chdev's ctrlPrepost: the fixed control-descriptor
// quota per connection on the ring channel.
const modelCtrlPrepost = 8

// modelT0 is the virtual time of a connection's first growth.
const modelT0 = sim.Microsecond

type mkind uint8

const (
	mEager mkind = iota // eager data: a send, or on the ring a slot write
	mRTS
	mCTS
	mFIN
	mECM   // explicit credit message, or the ring's head sync
	mWrite // the rendezvous payload write (send/recv shapes): no descriptor
	mRead  // the ring rendezvous read, receiver to sender: no descriptor
)

var mkindNames = [...]string{"eager", "RTS", "CTS", "FIN", "ECM", "write", "read"}

// mpkt is one packet on a channel: its header fields the VC reads.
type mpkt struct {
	kind     mkind
	credit   bool  // FlagCredit: the sender spent a credit on it
	starved  bool  // FlagStarved: the growth feedback
	piggy    uint8 // piggybacked credits
	ringHead uint8 // piggybacked ring head (absolute; small in the model)
	slot     uint8 // ring slot an eager write went to
	id       uint8 // the message's number in its direction (eager, RTS)
}

const mqCap = 12

// mqueue is a FIFO of packets: a channel in QP order, or a CQ.
type mqueue struct {
	n uint8
	q [mqCap]mpkt
}

func (q *mqueue) push(p mpkt) {
	if q.n == mqCap {
		panic("model: queue capacity exceeded")
	}
	q.q[q.n] = p
	q.n++
}

func (q *mqueue) pop() mpkt {
	p := q.q[0]
	copy(q.q[:], q.q[1:q.n])
	q.n--
	q.q[q.n] = mpkt{}
	return p
}

// mheld is the device's backlog: message ids in FIFO order, rts marking a
// queued rendezvous start.
type mheld struct {
	n   uint8
	id  [6]uint8
	rts [6]bool
}

func (h *mheld) push(id uint8, rts bool) {
	h.id[h.n], h.rts[h.n] = id, rts
	h.n++
}

func (h *mheld) pop() {
	copy(h.id[:], h.id[1:h.n])
	copy(h.rts[:], h.rts[1:h.n])
	h.n--
	h.id[h.n], h.rts[h.n] = 0, false
}

// mside is one connection end: its VC, the device state around it, and
// its application.
type mside struct {
	vc   VC
	pool Pool   // KindShared: the device's receive pool
	wire mqueue // packets posted toward the peer, in QP order
	cq   mqueue // arrivals landed here, not yet processed
	held mheld  // the backlog

	free    int      // free receive descriptors: the QP's, the SRQ's, or the ring's control quota
	armed   bool     // KindShared: the SRQ limit event is armed
	slots   [3]uint8 // KindRDMA inbound ring: id+1 of the message a slot holds, 0 once consumed
	waiting bool     // the application is parked on ActionWait
	sent    uint8    // messages this application has issued
	nextID  uint8    // the id the next arrival from the peer must carry
	got     uint8    // the peer's messages delivered here
}

type mstate struct {
	side   [2]mside
	budget uint8 // messages either application may still issue
}

// A move is one step, by one side, on one branch of the clock: whether
// growthCooldown has elapsed since the last growth.
type mmove uint8

func move(step, side int, elapsed bool) mmove {
	mv := mmove(step<<2 | side<<1)
	if elapsed {
		mv |= 1
	}
	return mv
}

func (mv mmove) step() int     { return int(mv >> 2) }
func (mv mmove) side() int     { return int(mv>>1) & 1 }
func (mv mmove) elapsed() bool { return mv&1 != 0 }

// The steps. The three application steps are enabled while the message
// budget lasts, the end has not issued its share, and its application is
// not parked.
const (
	stSend     = iota // a blocking eager send
	stIsend           // a non-blocking eager send
	stRndv            // a rendezvous
	stRetry           // a parked blocking send asks again once SendReady holds
	stComplete        // a payload write or read at the channel's head completes
	stProcess         // the CQ's head is processed
	stReturn          // an explicit return (ECM or ring sync), whenever NeedECM holds
	nSteps
)

var stepNames = [nSteps]string{"blocking send", "non-blocking send", "rendezvous", "retry", "complete", "process", "return"}

type model struct {
	p           Params
	msgs        int  // messages the two applications issue, in all
	perEnd      int  // messages either one issues, at most
	pessimistic bool // an ECM needs a credit and an empty backlog, like data

	// Per step: the clock branch being played, whether the step read
	// the clock, the first law it broke, and a note for the trace.
	elapsed   bool
	clockRead bool
	violation string
	note      string
}

func newModel(p Params, msgs, perEnd int) *model {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	return &model{p: p, msgs: msgs, perEnd: perEnd}
}

func (m *model) ring() bool   { return m.p.RingChannel() }
func (m *model) shared() bool { return m.p.SharedPool() }

func (m *model) fail(law, format string, args ...any) {
	if m.violation == "" {
		m.violation = law + ": " + fmt.Sprintf(format, args...)
	}
}

func (m *model) initial() mstate {
	var s mstate
	s.budget = uint8(m.msgs)
	for i := range s.side {
		sd := &s.side[i]
		sd.vc.Init(&m.p)
		switch {
		case m.shared():
			sd.pool = *NewPool(&m.p)
			sd.free = m.p.Prepost
			sd.armed = true
		case m.ring():
			sd.free = modelCtrlPrepost
		default:
			sd.free = m.p.Prepost
		}
	}
	return s
}

// now is the virtual time a growth decision sees, given the time of the
// last growth (a VC's 0 or a Pool's -1 when there was none): the clock is
// reduced to whether growthCooldown has elapsed since, which the explorer
// plays both ways.
func (m *model) now(last sim.Time) sim.Time {
	if last <= 0 {
		return modelT0
	}
	m.clockRead = true
	if m.elapsed {
		return last + growthCooldown
	}
	return last + 1
}

// post puts a header packet on i's wire, stamped with the ring head every
// outgoing header carries back (chdev's postPacket).
func (m *model) post(s *mstate, i int, p mpkt) {
	sd := &s.side[i]
	p.ringHead = uint8(sd.vc.PiggybackHead())
	sd.wire.push(p)
}

// sendEager posts message id as eager data the VC admitted: a send, or a
// write into the next ring slot. A backlogged one is starved-flagged.
func (m *model) sendEager(s *mstate, i int, id uint8, starved bool) {
	vc := &s.side[i].vc
	p := mpkt{kind: mEager, credit: true, starved: starved, id: id, piggy: uint8(vc.TakePiggyback())}
	if m.ring() {
		if out := vc.RingOut(); out.Free() == 0 {
			m.fail("ring", "a write admitted with no free slot: slot %d may still hold an unconsumed message", out.next)
			return
		}
		p.slot = uint8(vc.RingOut().Reserve())
	}
	m.post(s, i, p)
}

// drain sends from i's backlog, head first, while the VC lets it. The
// device drains where that can change: after queueing a send, and when an
// arrival returned credits or a ring head.
func (m *model) drain(s *mstate, i int) {
	sd := &s.side[i]
	vc := &sd.vc
	for sd.held.n > 0 {
		id := sd.held.id[0]
		if sd.held.rts[0] {
			consumed, ok := vc.DrainRTS()
			if !ok {
				return
			}
			sd.held.pop()
			m.post(s, i, mpkt{kind: mRTS, credit: consumed, starved: true, id: id, piggy: uint8(vc.TakePiggyback())})
			continue
		}
		if !vc.CanDrainBacklog() {
			return
		}
		sd.held.pop()
		m.sendEager(s, i, id, true)
	}
}

// arrive checks that the peer's message id is the next in send order.
func (m *model) arrive(sd *mside, id uint8) {
	if id != sd.nextID {
		m.fail("fifo", "message %d arrived before message %d", id, sd.nextID)
	}
	sd.nextID++
}

// enabled is each step's cheap precondition, checked before the state is
// copied; the step itself may still find nothing to do.
func (m *model) enabled(s *mstate, step, i int) bool {
	sd := &s.side[i]
	switch step {
	case stSend, stIsend, stRndv:
		return s.budget > 0 && !sd.waiting && int(sd.sent) < m.perEnd
	case stRetry:
		return sd.waiting && sd.vc.SendReady()
	case stComplete:
		return sd.wire.n > 0 && (sd.wire.q[0].kind == mWrite || sd.wire.q[0].kind == mRead)
	case stProcess:
		return sd.cq.n > 0
	case stReturn:
		return sd.vc.NeedECM()
	}
	return false
}

// land delivers from i's channel into the peer for as long as the head
// can land: a send/recv packet needs a free descriptor — without one it
// waits at the head of the channel, and everything behind it waits too
// (RNR head-of-line blocking); a ring write needs none; a payload write
// or read completes only at its poster's own step. The network has no
// latency: a packet that could land and has not yet is indistinguishable
// from one landed and not yet processed, but for the descriptor it holds,
// which no one else wants — only this channel lands at the peer.
func (m *model) land(s *mstate, i int) {
	sd, peer := &s.side[i], &s.side[1-i]
	for sd.wire.n > 0 {
		p := sd.wire.q[0]
		switch {
		case p.kind == mWrite || p.kind == mRead:
			return
		case p.kind == mEager && m.ring():
			if peer.slots[p.slot] != 0 {
				m.fail("ring", "slot %d written with message %d before message %d in it was consumed",
					p.slot, p.id, peer.slots[p.slot]-1)
			}
			peer.slots[p.slot] = p.id + 1
		default:
			if peer.free == 0 {
				return
			}
			peer.free--
			if m.shared() && peer.armed && peer.free < peer.pool.Watermark() {
				peer.armed = false
				peer.free += peer.pool.OnLimitEvent(m.now(peer.pool.lastGrowth))
			}
		}
		sd.wire.pop()
		peer.cq.push(p)
	}
}

// apply plays one move on s, then lands whatever can land, and reports
// whether the move did anything. A law broken on the way is left in
// m.violation; a panic in core is one.
func (m *model) apply(s *mstate, mv mmove) (ok bool) {
	m.elapsed, m.clockRead, m.violation, m.note = mv.elapsed(), false, "", ""
	defer func() {
		if r := recover(); r != nil {
			m.fail("invariants", "%v", r)
			ok = true
		}
	}()
	if !m.play(s, mv) {
		return false
	}
	m.land(s, 0)
	m.land(s, 1)
	return true
}

func (m *model) play(s *mstate, mv mmove) bool {
	i := mv.side()
	sd := &s.side[i]
	vc := &sd.vc
	switch mv.step() {
	case stSend, stIsend, stRndv:
		s.budget--
		id := sd.sent
		sd.sent++
		if mv.step() == stRndv {
			consumed, queue := vc.DecideRTS()
			if queue {
				sd.held.push(id, true)
				m.note = "queued"
				m.drain(s, i)
				return true
			}
			m.post(s, i, mpkt{kind: mRTS, credit: consumed, id: id, piggy: uint8(vc.TakePiggyback())})
			return true
		}
		a := vc.DecideEager(mv.step() == stSend)
		m.note = a.String()
		switch a {
		case ActionSend:
			m.sendEager(s, i, id, false)
		case ActionDemote:
			m.post(s, i, mpkt{kind: mRTS, starved: true, id: id, piggy: uint8(vc.TakePiggyback())})
		case ActionBacklog:
			sd.held.push(id, false)
			m.drain(s, i)
		case ActionWait:
			sd.waiting = true
		}
	case stRetry:
		sd.waiting = false
		a := vc.DecideEager(false)
		m.note = a.String()
		switch a {
		case ActionSend:
			m.sendEager(s, i, sd.sent-1, false)
		case ActionBacklog:
			sd.held.push(sd.sent-1, false)
			m.drain(s, i)
		default:
			m.fail("invariants", "a non-blocking retry answered %v", a)
		}
	case stComplete:
		// The peer's HCA took the write or served the read without a
		// descriptor; the transfer completes at its poster, which FINs:
		// the sender of a written payload, the reader of a read one (the
		// message is delivered there).
		p := sd.wire.pop()
		m.note = mkindNames[p.kind]
		m.post(s, i, mpkt{kind: mFIN, piggy: uint8(vc.TakePiggyback())})
		if p.kind == mRead {
			sd.got++
		}
	case stProcess:
		p := sd.cq.pop()
		m.note = mkindNames[p.kind]
		ringEager := m.ring() && p.kind == mEager
		if ringEager {
			if slot := vc.RingIn().Arrived(); slot != int(p.slot) {
				m.fail("ring", "arrival found in slot %d, its write went to slot %d", slot, p.slot)
			}
		}
		if m.shared() {
			sd.pool.Take()
		}
		if vc.Returned(int(p.piggy), uint32(p.ringHead)) {
			m.drain(s, i)
		}
		if p.starved {
			if grow := vc.OnStarvedFeedback(m.now(vc.lastGrowth)); grow > 0 {
				sd.free += grow
			}
		}
		switch p.kind {
		case mEager:
			m.arrive(sd, p.id)
			sd.got++
		case mRTS:
			m.arrive(sd, p.id)
			if m.ring() {
				sd.wire.push(mpkt{kind: mRead})
			} else {
				m.post(s, i, mpkt{kind: mCTS, piggy: uint8(vc.TakePiggyback())})
			}
		case mCTS:
			sd.wire.push(mpkt{kind: mWrite})
		case mFIN:
			if !m.ring() {
				sd.got++ // the payload write is in
			}
		}
		switch {
		case ringEager:
			vc.RingIn().Consumed()
			sd.slots[p.slot] = 0
		case m.shared():
			sd.pool.Processed()
			sd.free++
			if sd.free >= sd.pool.Watermark() {
				sd.armed = true
			}
		case m.ring():
			sd.free++ // the control quota recycles 1:1
		default:
			vc.BufferProcessed(p.credit, 0)
			sd.free++
		}
	case stReturn:
		p := mpkt{kind: mECM}
		switch {
		case m.ring():
			vc.RingIn().TakeHead(false)
		case m.pessimistic:
			// The rule the paper's optimistic ECMs exist to avoid: an
			// ECM is flow-controlled like data.
			if vc.Credits() == 0 || vc.BacklogLen() > 0 || vc.DecideEager(false) != ActionSend {
				return false
			}
			p.credit = true
			p.piggy = uint8(vc.TakeECM())
		default:
			p.piggy = uint8(vc.TakeECM())
		}
		m.post(s, i, p)
	}
	return true
}

// checkStep holds the growth law on the step from parent to s.
func (m *model) checkStep(parent, s *mstate) {
	for i := range s.side {
		if m.p.Kind == KindDynamic && s.side[i].vc.Posted() < parent.side[i].vc.Posted() ||
			m.shared() && s.side[i].pool.Posted() < parent.side[i].pool.Posted() {
			m.fail("growth", "side %c: posted fell", 'A'+i)
		}
	}
}

// check holds every state law on s. The laws are blind to the symmetries
// the state key folds, so a state is checked once, when it is first found.
func (m *model) check(s *mstate) {
	defer func() {
		if r := recover(); r != nil {
			m.fail("invariants", "%v", r)
		}
	}()
	for i := range s.side {
		sd, peer := &s.side[i], &s.side[1-i]
		sd.vc.CheckInvariants()
		if m.shared() {
			sd.pool.CheckInvariants()
		}
		if got, want := sd.vc.BacklogLen(), int(sd.held.n); got != want {
			m.fail("fifo", "side %c: VC backlog %d, the device holds %d", 'A'+i, got, want)
		}
		if m.p.UserLevel() {
			spent, returning := 0, 0
			for _, q := range []*mqueue{&sd.wire, &peer.cq} {
				for _, p := range q.q[:q.n] {
					if p.credit {
						spent++
					}
				}
			}
			for _, q := range []*mqueue{&peer.wire, &sd.cq} {
				for _, p := range q.q[:q.n] {
					returning += int(p.piggy)
				}
			}
			if sum := sd.vc.Credits() + spent + returning + peer.vc.Owed(); sum != peer.vc.Posted() {
				m.fail("conservation", "%c->%c: credits %d + spent in flight %d + returning %d + owed %d = %d, posted %d",
					'A'+i, 'B'-i, sd.vc.Credits(), spent, returning, peer.vc.Owed(), sum, peer.vc.Posted())
			}
		}
		landed, want := 0, sd.vc.Posted()
		for _, p := range sd.cq.q[:sd.cq.n] {
			if !m.ring() || p.kind != mEager {
				landed++
			}
		}
		switch {
		case m.shared():
			want = sd.pool.Posted()
		case m.ring():
			want = modelCtrlPrepost
		}
		if sd.free+landed != want {
			m.fail("descriptors", "side %c: %d free + %d landed, accounted %d", 'A'+i, sd.free, landed, want)
		}
	}
}

// quiescent reports whether nothing is left to do: every message
// delivered, no backlog, nothing in flight.
func (s *mstate) quiescent() bool {
	if s.budget != 0 {
		return false
	}
	for i := range s.side {
		sd := &s.side[i]
		if sd.waiting || sd.held.n != 0 || sd.wire.n != 0 || sd.cq.n != 0 ||
			sd.got != s.side[1-i].sent {
			return false
		}
	}
	return true
}

// key hashes what decides s's future: every field of both VCs but their
// Stats, the clocks as whether a growth happened, and the model's own
// state. Two reductions keep the search small, each an exact symmetry of
// the protocol:
//
//   - history: absolute counters — message ids, the ring's head and tail
//     positions — enter only as differences (a ring's occupancy, a
//     packet's id against the next one its receiver expects), so states
//     that differ only in how many messages went before are one state;
//   - mirror: both ends run the same scheme, so a state and its mirror
//     image (A and B swapped) have the same future; the two ends are
//     hashed apart and combined in a canonical order.
func (s *mstate) key() uint64 {
	a, b := s.side[0].hash(&s.side[1]), s.side[1].hash(&s.side[0])
	if b < a {
		a, b = b, a
	}
	h := mhash(s.budget)
	h.add(a)
	h.add(b)
	return h.sum()
}

// mhash mixes whole words: a multiply-xorshift per word, an avalanche at
// the end.
type mhash uint64

func (h *mhash) add(v uint64) {
	x := (uint64(*h) ^ v) * 0x9e3779b97f4a7c15
	*h = mhash(x ^ x>>32)
}

func (h mhash) sum() uint64 {
	x := uint64(h)
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// pack puts eight byte-sized fields in one word.
func pack(a, b, c, d, e, f, g, h byte) uint64 {
	return uint64(a) | uint64(b)<<8 | uint64(c)<<16 | uint64(d)<<24 |
		uint64(e)<<32 | uint64(f)<<40 | uint64(g)<<48 | uint64(h)<<56
}

// hash hashes one end, its counters relative to peer's: the ids of its
// messages against the id peer expects next, the ring heads it sends back
// against its own inbound head.
func (sd *mside) hash(peer *mside) uint64 {
	v := &sd.vc
	out, in := &v.ring.out, &v.ring.in
	var h mhash
	h.add(pack(byte(v.credits), byte(v.backlog), byte(v.posted), byte(v.owed),
		bit(v.lastGrowth > 0), byte(sd.pool.posted), byte(sd.pool.inUse), 0))
	h.add(pack(byte(out.slots), byte(out.next), byte(out.tail-out.head), byte(out.tail-out.headSeen),
		byte(in.next), byte(in.tail-in.head), byte(in.head-in.headSent), bit(sd.pool.lastGrowth >= 0)))
	h.add(pack(byte(sd.free), bit(sd.armed), bit(sd.waiting), sd.sent-peer.nextID, peer.sent-sd.got,
		sd.wire.n, sd.cq.n, sd.held.n))
	for _, q := range [2]struct {
		q        *mqueue
		from, to *mside
	}{{&sd.wire, sd, peer}, {&sd.cq, peer, sd}} {
		for _, p := range q.q.q[:q.q.n] {
			id := byte(0)
			if p.kind == mEager || p.kind == mRTS {
				id = p.id - q.to.nextID
			}
			h.add(pack(byte(p.kind), bit(p.credit)|bit(p.starved)<<1, p.piggy,
				byte(q.from.vc.ring.in.head-uint32(p.ringHead)), p.slot, id, 0, 0))
		}
	}
	for k := range sd.held.n {
		h.add(pack(sd.held.id[k]-peer.nextID, bit(sd.held.rts[k]), 0, 0, 0, 0, 0, 0))
	}
	var slots [3]byte
	for k, id := range sd.slots {
		if id != 0 {
			slots[k] = id - sd.nextID
		}
	}
	h.add(pack(slots[0], slots[1], slots[2], 0, 0, 0, 0, 0))
	return h.sum()
}

// TestModelKeyCoversVC fails when VC, Ring or Pool gains a field the
// state key does not know: two states that differ only there would be
// taken for one.
func TestModelKeyCoversVC(t *testing.T) {
	for _, tc := range []struct {
		v    any
		want string
	}{
		{VC{}, "params credits backlog posted owed lastGrowth ring stats"},
		{ringPair{}, "out in"},
		{Ring{}, "slots next tail head headSeen headSent stats"},
		{Pool{}, "params posted inUse lastGrowth stats"},
	} {
		typ := reflect.TypeOf(tc.v)
		var names []string
		for i := range typ.NumField() {
			names = append(names, typ.Field(i).Name)
		}
		if got := strings.Join(names, " "); got != tc.want {
			t.Errorf("%v has fields %q; the model's state key knows %q", typ, got, tc.want)
		}
	}
}

// snapshot appends s in the compact form restore rebuilds it from: the
// search's frontier holds states this way, at a tenth of their size.
func (s *mstate) snapshot(b []byte) []byte {
	u8 := func(v uint32) byte {
		if v > 255 {
			panic(fmt.Sprintf("model: counter %d outgrew its snapshot byte", v))
		}
		return byte(v)
	}
	b = append(b, s.budget)
	for i := range s.side {
		sd := &s.side[i]
		v := &sd.vc
		b = append(b, byte(v.credits), byte(v.backlog), byte(v.posted), byte(v.owed), bit(v.lastGrowth > 0))
		for _, r := range [2]*Ring{&v.ring.out, &v.ring.in} {
			b = append(b, byte(r.next), u8(r.tail), u8(r.head), u8(r.headSeen), u8(r.headSent))
		}
		b = append(b, byte(sd.pool.posted), byte(sd.pool.inUse), bit(sd.pool.lastGrowth >= 0))
		for _, q := range [2]*mqueue{&sd.wire, &sd.cq} {
			b = append(b, q.n)
			for _, p := range q.q[:q.n] {
				b = append(b, byte(p.kind), bit(p.credit)|bit(p.starved)<<1, p.piggy, p.ringHead, p.slot, p.id)
			}
		}
		b = append(b, sd.held.n)
		for k := range sd.held.n {
			b = append(b, sd.held.id[k], bit(sd.held.rts[k]))
		}
		b = append(b, byte(sd.free), bit(sd.armed), sd.slots[0], sd.slots[1], sd.slots[2],
			bit(sd.waiting), sd.sent, sd.nextID, sd.got)
	}
	return b
}

// restore rebuilds a snapshot: the state it was taken of, but for what
// no decision reads — Stats, and the time of the last
// growth, which only the clock branch (modelT0, or nothing yet) decides.
func (m *model) restore(b []byte) (s mstate) {
	next := func() byte {
		c := b[0]
		b = b[1:]
		return c
	}
	num := func() int { return int(next()) }
	grew := func(never sim.Time) sim.Time {
		if next() != 0 {
			return modelT0
		}
		return never
	}
	s.budget = next()
	for i := range s.side {
		sd := &s.side[i]
		sd.vc = VC{params: &m.p, credits: num(), backlog: num(), posted: num(), owed: num(),
			lastGrowth: grew(0)}
		for _, r := range [2]*Ring{&sd.vc.ring.out, &sd.vc.ring.in} {
			*r = Ring{next: int32(next()), tail: uint32(next()), head: uint32(next()),
				headSeen: uint32(next()), headSent: uint32(next())}
			if m.ring() {
				r.slots = int32(m.p.Prepost)
			}
		}
		pool := Pool{posted: num(), inUse: num(), lastGrowth: grew(-1)}
		if m.shared() {
			pool.params = &m.p
			sd.pool = pool
		}
		for _, q := range [2]*mqueue{&sd.wire, &sd.cq} {
			n := next()
			for range n {
				f := [6]byte{next(), next(), next(), next(), next(), next()}
				q.push(mpkt{kind: mkind(f[0]), credit: f[1]&1 != 0, starved: f[1]&2 != 0,
					piggy: f[2], ringHead: f[3], slot: f[4], id: f[5]})
			}
		}
		for range next() {
			sd.held.push(next(), next() != 0)
		}
		sd.free, sd.armed = num(), next() != 0
		sd.slots = [3]uint8{next(), next(), next()}
		sd.waiting, sd.sent, sd.nextID, sd.got = next() != 0, next(), next(), next()
	}
	return s
}

// normalized is s as restore rebuilds it.
func (s mstate) normalized() mstate {
	for i := range s.side {
		v, pl := &s.side[i].vc, &s.side[i].pool
		v.stats, v.ring.out.stats, v.ring.in.stats, pl.stats = Stats{}, RingStats{}, RingStats{}, PoolStats{}
		if v.lastGrowth > 0 {
			v.lastGrowth = modelT0
		}
		if pl.params != nil && pl.lastGrowth >= 0 {
			pl.lastGrowth = modelT0
		}
	}
	return s
}

func bit(v bool) byte {
	if v {
		return 1
	}
	return 0
}

type mresult struct {
	states, depth int
	stuck         []mmove // the shortest path to a stuck state, if one was found
	violation     string  // the first law broken, with the path to it in trace
	trace         []mmove
}

// explore searches every state reachable from the initial one, breadth
// first, until a law breaks or a stuck state is found. States are
// numbered in the order found; each keeps its parent and the move that
// reached it, so a path back to the initial state is a shortest one.
func (m *model) explore() mresult {
	var res mresult
	init := m.initial()
	seen := map[uint64]int32{init.key(): 0}
	parent, moves := []int32{-1}, []mmove{0}
	path := func(k int32, last ...mmove) []mmove {
		var p []mmove
		for ; k > 0; k = parent[k] {
			p = append(p, moves[k])
		}
		slices.Reverse(p)
		return append(p, last...)
	}
	// A level of the search: its states' snapshots back to back, and
	// each one's number and end offset.
	type level struct {
		arena []byte
		ids   []int32
		ends  []int
	}
	cur := level{arena: init.snapshot(nil), ids: []int32{0}}
	cur.ends = []int{len(cur.arena)}
	for len(cur.ids) > 0 {
		var nxt level
		start := 0
		for k, id := range cur.ids {
			s := m.restore(cur.arena[start:cur.ends[k]])
			start = cur.ends[k]
			moved := false
			for step := range nSteps {
				for i := range 2 {
					if !m.enabled(&s, step, i) {
						continue
					}
					for _, elapsed := range [2]bool{false, true} {
						c := s
						mv := move(step, i, elapsed)
						if !m.apply(&c, mv) {
							break
						}
						moved = true
						clockRead := m.clockRead
						var h uint64
						fresh := false
						if m.violation == "" {
							m.checkStep(&s, &c)
						}
						if m.violation == "" {
							h = c.key()
							if _, ok := seen[h]; !ok {
								fresh = true
								m.check(&c)
							}
						}
						if m.violation != "" {
							res.violation, res.trace = m.violation, path(id, mv)
							return res
						}
						if fresh {
							n := int32(len(parent))
							seen[h] = n
							parent, moves = append(parent, id), append(moves, mv)
							end := len(nxt.arena)
							nxt.arena = c.snapshot(nxt.arena)
							// A field the snapshot missed would show in
							// most states: check a sample.
							if n%64 == 0 && m.restore(nxt.arena[end:]) != c.normalized() {
								panic("model: a snapshot lost part of the state")
							}
							nxt.ids, nxt.ends = append(nxt.ids, n), append(nxt.ends, len(nxt.arena))
						}
						if !clockRead {
							break
						}
					}
				}
			}
			if !moved && !s.quiescent() && res.stuck == nil {
				res.stuck = path(id)
			}
		}
		res.states = len(parent)
		if res.stuck != nil {
			break
		}
		res.depth++
		cur = nxt
	}
	return res
}

// replay plays path from the initial state and renders it one step a
// line, with what each step did and where the two ends stand after it.
func (m *model) replay(path []mmove) string {
	s := m.initial()
	var b strings.Builder
	for n, mv := range path {
		m.apply(&s, mv)
		step := stepNames[mv.step()]
		if m.note != "" {
			step += " → " + m.note
		}
		if mv.elapsed() {
			step += " (cooldown elapsed)"
		}
		fmt.Fprintf(&b, "\n%3d  %c %-28s", n+1, 'A'+mv.side(), step)
		for i, sd := range s.side {
			if m.ring() {
				fmt.Fprintf(&b, "  %c: free slots %d unsynced %d backlog %d", 'A'+i,
					sd.vc.RingOut().Free(), sd.vc.Unreturned(), sd.vc.BacklogLen())
				continue
			}
			fmt.Fprintf(&b, "  %c: credits %d owed %d posted %d backlog %d", 'A'+i,
				sd.vc.Credits(), sd.vc.Owed(), sd.vc.Posted(), sd.vc.BacklogLen())
		}
		if m.violation != "" {
			fmt.Fprintf(&b, "\n     %s", m.violation)
		}
	}
	return b.String()
}

// modelConfigs are the configurations checked: all five kinds at pre-post
// (ring slots) 1 to maxPrepost, dynamic and shared growing to 4.
func modelConfigs(maxPrepost int) []Params {
	var ps []Params
	for n := 1; n <= maxPrepost; n++ {
		ps = append(ps, Hardware(n), Static(n), Dynamic(n, 4), Shared(n, 4), RDMA(n, 64))
	}
	return ps
}

func modelName(p Params) string {
	switch p.Kind {
	case KindDynamic, KindShared:
		return fmt.Sprintf("%v(%d,%d)", p.Kind, p.Prepost, p.Max)
	}
	return fmt.Sprintf("%v(%d)", p.Kind, p.Prepost)
}

// TestModelVC checks every law in every state reachable with up to six
// messages, at most four from either end, over every configuration
// (-short: four messages, three from either end, pre-post up to 2).
func TestModelVC(t *testing.T) {
	msgs, perEnd, maxPrepost := 6, 4, 3
	if testing.Short() {
		msgs, perEnd, maxPrepost = 4, 3, 2
	}
	for _, p := range modelConfigs(maxPrepost) {
		t.Run(modelName(p), func(t *testing.T) {
			t.Parallel()
			m := newModel(p, msgs, perEnd)
			res := m.explore()
			if res.violation != "" {
				t.Fatalf("%s after %d steps:%s", res.violation, len(res.trace), m.replay(res.trace))
			}
			if res.stuck != nil {
				t.Fatalf("stuck after %d steps, with work left:%s", len(res.stuck), m.replay(res.stuck))
			}
			t.Logf("%d messages: %d states, depth %d", msgs, res.states, res.depth)
		})
	}
}

// TestModelPessimisticRuleDeadlocks is the converse law: with an ECM that
// needs a credit and an empty backlog, like data, the search finds the
// mutual-starvation deadlock the paper's optimistic ECMs avoid. Both ends
// flood past their one credit; each owes the other the credit of the
// message it processed, and neither may send the ECM that returns it.
func TestModelPessimisticRuleDeadlocks(t *testing.T) {
	m := newModel(Static(1), 4, 3)
	m.pessimistic = true
	res := m.explore()
	if res.violation != "" {
		t.Fatalf("%s after %d steps:%s", res.violation, len(res.trace), m.replay(res.trace))
	}
	if res.stuck == nil {
		t.Fatalf("no deadlock in %d states", res.states)
	}
	t.Logf("shortest deadlock, %d steps:%s", len(res.stuck), m.replay(res.stuck))
	if len(res.stuck) != 6 {
		t.Errorf("shortest deadlock has %d steps, want 6", len(res.stuck))
	}
}

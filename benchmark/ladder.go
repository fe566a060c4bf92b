package main

import (
	"fmt"
	"runtime"
	"time"

	"ibflow/internal/chdev"
	"ibflow/internal/coll"
	"ibflow/internal/core"
	"ibflow/internal/ib"
	"ibflow/internal/mem"
	"ibflow/internal/mpi"
	"ibflow/internal/nas"
	"ibflow/internal/sim"
)

// The ladder drives one fixed micro-traffic at each layer's exported API
// with every layer above bypassed: 256 B messages from node 0 to node 1 in
// batches of ladderBatch, one 4 B ack per batch, the receiver always ready
// unless the rung says otherwise. A rung's cost minus the cost of the rung
// below it is that layer's own share.
const (
	ladderMsg   = 256
	ladderBatch = 8
	ladderBig   = 64 << 10
	ladderReps  = 5
)

// rung is one built measurement: run is the timed part; events, when set,
// reports the engine events the timed part fired.
type rung struct {
	run    func()
	events func() uint64
}

type rungCost struct{ ns, events, allocs float64 } // per item

// timeRung builds and runs a rung ladderReps times after a short warm-up
// and returns the fastest rep's host time (on a rung this short a
// disturbance only ever adds time), with that rep's allocation count and
// the event count, which is the same in every rep.
func timeRung(n int, build func(n int) rung) rungCost {
	build(n/8 + 1).run()
	var best rungCost
	for i := 0; i < ladderReps; i++ {
		r := build(n)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		t0 := time.Now()
		r.run()
		dt := time.Since(t0)
		runtime.ReadMemStats(&after)
		c := rungCost{ns: float64(dt) / float64(n), allocs: float64(after.Mallocs-before.Mallocs) / float64(n)}
		if r.events != nil {
			c.events = float64(r.events()) / float64(n)
		}
		if i == 0 || c.ns < best.ns {
			best = c
		}
	}
	return best
}

type ladder struct {
	div int
	out []layerValue
	ns  map[string]float64 // ns per item of the rungs the derived figures use
	ev  map[string]float64
}

func (l *ladder) add(name string, v float64, unit string, exact bool) {
	l.out = append(l.out, layerValue{name, v, unit, exact})
}

func (l *ladder) n(full int) int {
	if n := full / l.div; n > 16 {
		return n
	}
	return 16
}

// full reports ns, events and allocs per message under prefix.
func (l *ladder) full(prefix, item string, n int, build func(n int) rung) {
	c := timeRung(l.n(n), build)
	l.ns[prefix], l.ev[prefix] = c.ns, c.events
	l.add(prefix+".ns_per_"+item, c.ns, "ns", false)
	l.add(prefix+".events_per_"+item, c.events, "1/"+item, true)
	if item == "msg" {
		l.add(prefix+".allocs_per_msg", c.allocs, "1/msg", false)
	}
}

// nsOnly reports host time per item under the given full name.
func (l *ladder) nsOnly(name string, n int, build func(n int) rung) {
	c := timeRung(l.n(n), build)
	l.ns[name] = c.ns
	l.add(name, c.ns, "ns", false)
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}

// runLadder measures every rung bottom-up.
func runLadder(sz sizes) []layerValue {
	l := &ladder{div: sz.LadderDiv, ns: map[string]float64{}, ev: map[string]float64{}}
	l.simRungs()
	l.coreRungs()
	l.ibRungs()
	l.chdevRungs()
	l.mpiRungs(sz.StormRanks)
	l.collRungs()
	l.nasRungs(sz.NASClass)

	l.add("ib.stream.self_ns_per_msg", l.ns["ib.stream"]-l.ev["ib.stream"]*l.ns["sim.dispatch_ns"], "ns", false)
	l.add("chdev.eager.self_ns_per_msg", l.ns["chdev.eager.static"]-l.ns["ib.stream"], "ns", false)
	l.add("mpi.eager.self_ns_per_msg", l.ns["mpi.eager"]-l.ns["chdev.eager.static"], "ns", false)
	l.add("chdev.world_size_penalty", l.ns["mpi.eager_1024.ns_per_msg"]/l.ns["mpi.eager"], "ratio", false)
	return l.out
}

// --- sim --------------------------------------------------------------------

// chain reschedules itself until it has fired limit times.
type chain struct {
	eng      *sim.Engine
	n, limit int
	stride   sim.Time
}

func (c *chain) OnEvent(uint64) {
	c.n++
	if c.n < c.limit {
		c.eng.AfterCall(c.stride, c, 0)
	}
}

func (l *ladder) simRungs() {
	runEngine := func(eng *sim.Engine) func() {
		return func() { must(eng.Run(sim.MaxTime)) }
	}
	l.nsOnly("sim.dispatch_ns", 2_400_000, func(n int) rung {
		eng := sim.NewEngine()
		eng.AfterCall(1, &chain{eng: eng, limit: n, stride: 1}, 0)
		return rung{run: runEngine(eng)}
	})
	// The same chain with 100 k events pending behind it, spread over the
	// queue's tiers as a large world's timers and in-flight messages are.
	l.nsOnly("sim.dispatch_deep_ns", 420_000, func(n int) rung {
		eng := sim.NewEngine()
		const pending = 100_000
		c := &chain{eng: eng, limit: n, stride: pending}
		for i := 0; i < pending; i++ {
			eng.AtCall(sim.Time(i), c, 0)
		}
		return rung{run: runEngine(eng)}
	})
	l.nsOnly("sim.proc_switch_ns", 60_000, func(n int) rung {
		eng := sim.NewEngine()
		eng.Go("sleeper", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				p.Sleep(1) // one park and one resume
			}
		})
		return rung{run: func() { must(eng.Run(sim.MaxTime)); eng.Close() }}
	})
	l.nsOnly("sim.timer_reset_ns", 1_200_000, func(n int) rung {
		eng := sim.NewEngine()
		fired := 0
		var tm *sim.Timer
		tm = sim.NewTimer(eng, func() {
			fired++
			if fired < n {
				tm.Reset(1)
			}
		})
		tm.Reset(1)
		return rung{run: runEngine(eng)}
	})
	l.nsOnly("sim.cancel_ns", 600_000, func(n int) rung {
		eng := sim.NewEngine()
		fired := 0
		var fn func()
		fn = func() {
			fired++
			if fired < n {
				eng.AtCancel(eng.Now()+2, func() {}).Cancel()
				eng.After(1, fn)
			}
		}
		eng.After(1, fn)
		return rung{run: runEngine(eng)}
	})
	l.nsOnly("mem.bufpool_ns_per_op", 2_400_000, func(n int) rung {
		pool := mem.NewBufPool(2048)
		return rung{run: func() {
			for i := 0; i < n; i++ {
				pool.Put(pool.Get())
			}
		}}
	})
}

// --- core -------------------------------------------------------------------

func (l *ladder) coreRungs() {
	// One credit's round trip: the sender spends it, the receiver's
	// buffer comes back, the credit rides home on a reverse message.
	l.nsOnly("core.vc_ns_per_op", 2_400_000, func(n int) rung {
		p := core.Static(10)
		must(p.Validate())
		snd, rcv := core.NewVC(&p), core.NewVC(&p)
		return rung{run: func() {
			for i := 0; i < n; i++ {
				if snd.DecideEager(false) != core.ActionSend {
					panic("core.vc rung: out of credits")
				}
				snd.CountMsg()
				rcv.BufferProcessed(true, sim.Time(i))
				snd.AddCredits(rcv.TakePiggyback())
			}
		}}
	})
	l.nsOnly("core.pool_ns_per_op", 2_400_000, func(n int) rung {
		p := core.Shared(16, 96)
		must(p.Validate())
		pool := core.NewPool(&p)
		return rung{run: func() {
			for i := 0; i < n; i++ {
				pool.Take()
				pool.Processed()
			}
		}}
	})
	l.nsOnly("core.ring_ns_per_op", 2_400_000, func(n int) rung {
		out, in := core.NewRing(8), core.NewRing(8)
		return rung{run: func() {
			for i := 0; i < n; i++ {
				out.Reserve()
				in.Arrived()
				in.Consumed()
				out.SeenHead(in.TakeHead(true))
			}
		}}
	})
}

// --- ib ---------------------------------------------------------------------

// verbsEnd is one side of a bare verbs connection: a queue pair whose
// send and receive completions share one CQ, drained by a notify handler
// in event context (poll until empty, re-arm) — no sim.Proc anywhere.
type verbsEnd struct {
	qp   *ib.QP
	cq   *ib.CQ
	hca  *ib.HCA
	onWC func(wc ib.WC)
}

func (v *verbsEnd) OnEvent(uint64) {
	for {
		wc, ok := v.cq.Poll()
		if !ok {
			break
		}
		v.onWC(wc)
	}
	v.cq.Arm()
}

func verbsPair(cfg ib.Config, nodes, a, b int) (*sim.Engine, *verbsEnd, *verbsEnd) {
	eng := sim.NewEngine()
	f := ib.NewFabric(eng, cfg, nodes)
	mk := func(node int) *verbsEnd {
		h := f.HCA(node)
		v := &verbsEnd{hca: h, cq: h.NewCQ()}
		v.qp = h.NewQP(v.cq, v.cq)
		v.cq.SetNotify(v)
		v.cq.Arm()
		return v
	}
	ea, eb := mk(a), mk(b)
	ib.Connect(ea.qp, eb.qp)
	return eng, ea, eb
}

// verbsStream builds the ladder traffic on bare verbs: a posts batches of
// sends, b re-posts each receive as it completes and acks every batch.
func verbsStream(cfg ib.Config, nodes, peer int) func(n int) rung {
	return func(n int) rung {
		eng, a, b := verbsPair(cfg, nodes, 0, peer)
		data, ack := make([]byte, ladderMsg), make([]byte, 4)
		ackBuf := make([]byte, 4)
		rbufs := make([][]byte, 2*ladderBatch)
		for i := range rbufs {
			rbufs[i] = make([]byte, ladderMsg)
			b.qp.PostRecv(uint64(i), rbufs[i])
		}
		a.qp.PostRecv(0, ackBuf)
		sent, got := 0, 0
		batch := func() {
			for i := 0; i < ladderBatch && sent < n; i++ {
				a.qp.PostSend(uint64(sent), data)
				sent++
			}
		}
		a.onWC = func(wc ib.WC) {
			if wc.Opcode == ib.OpRecvComplete {
				a.qp.PostRecv(0, ackBuf)
				batch()
			}
		}
		b.onWC = func(wc ib.WC) {
			if wc.Opcode != ib.OpRecvComplete {
				return
			}
			b.qp.PostRecv(wc.WRID, rbufs[wc.WRID])
			got++
			if got%ladderBatch == 0 || got == n {
				b.qp.PostSend(0, ack)
			}
		}
		return rung{
			run: func() {
				batch()
				must(eng.Run(sim.MaxTime))
				if got != n {
					panic(fmt.Sprintf("ib stream rung: delivered %d of %d", got, n))
				}
			},
			events: eng.EventsFired,
		}
	}
}

func (l *ladder) ibRungs() {
	cfg := ib.DefaultConfig()
	l.full("ib.stream", "msg", 120_000, verbsStream(cfg, 2, 1))
	l.full("ib.pingpong", "msg", 120_000, func(n int) rung {
		eng, a, b := verbsPair(cfg, 2, 0, 1)
		data := [2][]byte{make([]byte, ladderMsg), make([]byte, ladderMsg)}
		rbuf := [2][]byte{make([]byte, ladderMsg), make([]byte, ladderMsg)}
		a.qp.PostRecv(0, rbuf[0])
		b.qp.PostRecv(0, rbuf[1])
		got := 0
		a.onWC = func(wc ib.WC) {
			if wc.Opcode == ib.OpRecvComplete {
				a.qp.PostRecv(0, rbuf[0])
				if got++; got < n {
					a.qp.PostSend(0, data[0])
				}
			}
		}
		b.onWC = func(wc ib.WC) {
			if wc.Opcode == ib.OpRecvComplete {
				b.qp.PostRecv(0, rbuf[1])
				if got++; got < n {
					b.qp.PostSend(0, data[1])
				}
			}
		}
		return rung{
			run: func() {
				a.qp.PostSend(0, data[0])
				must(eng.Run(sim.MaxTime))
			},
			events: eng.EventsFired,
		}
	})
	// The receiver posts its buffer 20 us after each send was posted:
	// the first attempt always draws an RNR NAK, the timed retry lands.
	l.full("ib.rnr", "msg", 60_000, func(n int) rung {
		eng, a, b := verbsPair(cfg, 2, 0, 1)
		data, rbuf := make([]byte, ladderMsg), make([]byte, ladderMsg)
		late := lateRecv{qp: b.qp, buf: rbuf}
		sent := 0
		next := func() {
			if sent < n {
				sent++
				a.qp.PostSend(0, data)
				eng.AfterCall(20*sim.Microsecond, &late, 0)
			}
		}
		a.onWC = func(ib.WC) {}
		b.onWC = func(wc ib.WC) {
			if wc.Opcode == ib.OpRecvComplete {
				next()
			}
		}
		return rung{
			run: func() {
				next()
				must(eng.Run(sim.MaxTime))
				if got := a.qp.Stats().RNRNaks; got < uint64(n) {
					panic(fmt.Sprintf("ib.rnr rung: %d NAKs for %d messages", got, n))
				}
			},
			events: eng.EventsFired,
		}
	})
	rdma := func(read bool) func(n int) rung {
		return func(n int) rung {
			eng, a, b := verbsPair(cfg, 2, 0, 1)
			local := make([]byte, ladderBig)
			key := ib.RemoteKey{MR: b.hca.RegisterMemory(make([]byte, ladderBig))}
			done := 0
			post := func() {
				if read {
					a.qp.PostRead(0, local, key)
				} else {
					a.qp.PostWrite(0, local, key)
				}
			}
			a.onWC = func(ib.WC) {
				if done++; done < n {
					post()
				}
			}
			b.onWC = func(ib.WC) {}
			return rung{run: func() { post(); must(eng.Run(sim.MaxTime)) }}
		}
	}
	l.nsOnly("ib.write64k.ns_per_msg", 12_000, rdma(false))
	l.nsOnly("ib.read64k.ns_per_msg", 12_000, rdma(true))
	// Node 0 to node 40: across the trunk of the storm's fat tree.
	l.full("ib.fattree", "msg", 90_000, verbsStream(fatTree(cfg), 64, 40))
}

// lateRecv posts one receive when its event fires.
type lateRecv struct {
	qp  *ib.QP
	buf []byte
}

func (r *lateRecv) OnEvent(uint64) { r.qp.PostRecv(0, r.buf) }

// --- chdev ------------------------------------------------------------------

// sink is the benchmark's own chdev.Handler: it counts deliveries and
// accepts every rendezvous at once into one buffer.
type sink struct {
	eager, rndvDone, sendDone int
	big                       []byte
}

func (s *sink) DeliverEagerStart(int, int, uint16, []byte) {}
func (s *sink) DeliverEagerDone()                          { s.eager++ }
func (s *sink) DeliverRndvStart(r *chdev.RndvIn) ([]byte, bool) {
	return s.big[:r.Len], true
}
func (s *sink) DeliverRndvDone(*chdev.RndvIn) { s.rndvDone++ }
func (s *sink) SendDone(any)                  { s.sendDone++ }

func devPair(fc core.Params) (*sim.Engine, [2]*chdev.Device, [2]*sink) {
	eng := sim.NewEngine()
	f := ib.NewFabric(eng, ib.DefaultConfig(), 2)
	var devs [2]*chdev.Device
	var sinks [2]*sink
	for i := range devs {
		sinks[i] = &sink{big: make([]byte, ladderBig)}
		devs[i] = chdev.New(eng, f.HCA(i), chdev.DefaultConfig(), fc, i, 2, sinks[i])
	}
	chdev.Wire(devs[:])
	return eng, devs, sinks
}

// devStream is the ladder traffic through Device.Send: batches of batch
// non-blocking sends, one ack per batch.
func devStream(fc core.Params, batch int) func(n int) rung {
	return func(n int) rung {
		eng, d, s := devPair(fc)
		data, ack := make([]byte, ladderMsg), make([]byte, 4)
		batches := (n + batch - 1) / batch
		eng.Go("sender", func(p *sim.Proc) {
			sent := 0
			for b := 1; b <= batches; b++ {
				for i := 0; i < batch && sent < n; i++ {
					d[0].Send(p, 1, i, 0, data, nil, false)
					sent++
				}
				d[0].WaitProgress(p, func() bool { return s[0].eager >= b })
			}
			d[0].WaitProgress(p, d[0].Quiescent)
		})
		eng.Go("receiver", func(p *sim.Proc) {
			for b := 1; b <= batches; b++ {
				want := b * batch
				if want > n {
					want = n
				}
				d[1].WaitProgress(p, func() bool { return s[1].eager >= want })
				d[1].Send(p, 0, 0, 0, ack, nil, false)
			}
			d[1].WaitProgress(p, d[1].Quiescent)
		})
		return rung{
			run:    func() { must(eng.Run(sim.MaxTime)); eng.Close() },
			events: eng.EventsFired,
		}
	}
}

func (l *ladder) chdevRungs() {
	l.full("chdev.eager.static", "msg", 12_000, devStream(core.Static(64), ladderBatch))
	l.full("chdev.eager.rdma", "msg", 12_000, devStream(core.RDMA(32, 1024), ladderBatch))
	// A window of 64 over 10 credits: every round overruns them.
	l.full("chdev.backlog", "msg", 12_000, devStream(core.Static(10), 64))
	l.full("chdev.rndv", "msg", 2_400, func(n int) rung {
		eng, d, s := devPair(core.Static(64))
		big := make([]byte, ladderBig)
		eng.Go("sender", func(p *sim.Proc) {
			for i := 1; i <= n; i++ {
				d[0].Send(p, 1, 0, 0, big, nil, true)
				d[0].WaitProgress(p, func() bool { return s[0].sendDone >= i })
			}
			d[0].WaitProgress(p, d[0].Quiescent)
		})
		eng.Go("receiver", func(p *sim.Proc) {
			d[1].WaitProgress(p, func() bool { return s[1].rndvDone >= n })
			d[1].WaitProgress(p, d[1].Quiescent)
		})
		return rung{
			run:    func() { must(eng.Run(sim.MaxTime)); eng.Close() },
			events: eng.EventsFired,
		}
	})
}

// --- mpi --------------------------------------------------------------------

// worldRung times World.Run of main on an n-rank world.
func worldRung(ranks int, opts mpi.Options, main func(c *mpi.Comm)) rung {
	opts.TimeLimit = timeLimit
	w := mpi.NewWorld(ranks, opts)
	return rung{
		run:    func() { must(w.Run(main)) },
		events: w.Engine().EventsFired,
	}
}

// mpiStream is the ladder traffic through Isend/Irecv/Waitall between
// ranks 0 and 1; other ranks of the world stay idle.
func mpiStream(n int) func(c *mpi.Comm) {
	return func(c *mpi.Comm) {
		if c.Rank() > 1 {
			return
		}
		data, ack := make([]byte, ladderBatch*ladderMsg), make([]byte, 4)
		reqs := make([]*mpi.Request, 0, ladderBatch)
		for done := 0; done < n; done += ladderBatch {
			k := ladderBatch
			if n-done < k {
				k = n - done
			}
			reqs = reqs[:0]
			for i := 0; i < k; i++ {
				buf := data[i*ladderMsg : (i+1)*ladderMsg]
				if c.Rank() == 0 {
					reqs = append(reqs, c.Isend(1, i, buf))
				} else {
					reqs = append(reqs, c.Irecv(0, i, buf))
				}
			}
			c.Waitall(reqs...)
			if c.Rank() == 0 {
				c.Recv(1, 99, ack)
			} else {
				c.Send(0, 99, ack)
			}
		}
	}
}

func (l *ladder) mpiRungs(ranksBig int) {
	ample := mpi.DefaultOptions(core.Static(64))
	l.full("mpi.eager", "msg", 12_000, func(n int) rung {
		return worldRung(2, ample, mpiStream(n))
	})
	l.full("mpi.pingpong", "msg", 12_000, func(n int) rung {
		return worldRung(2, ample, func(c *mpi.Comm) {
			buf := make([]byte, ladderMsg)
			for i := 0; i < n/2; i++ {
				if c.Rank() == 0 {
					c.Send(1, 0, buf)
					c.Recv(1, 0, buf)
				} else {
					c.Recv(0, 0, buf)
					c.Send(0, 0, buf)
				}
			}
		})
	})
	l.full("mpi.rndv", "msg", 2_400, func(n int) rung {
		return worldRung(2, ample, func(c *mpi.Comm) {
			buf := make([]byte, ladderBig)
			for i := 0; i < n; i++ {
				if c.Rank() == 0 {
					c.Send(1, 0, buf)
				} else {
					c.Recv(0, 0, buf)
				}
			}
		})
	})
	// 512 posted receives matched in reverse: every arrival walks the
	// whole posted queue.
	const deep = 512
	l.nsOnly("mpi.match_deep.ns_per_msg", 24*deep, func(n int) rung {
		rounds := n/deep + 1
		return worldRung(2, mpi.DefaultOptions(core.Static(deep+8)), func(c *mpi.Comm) {
			data, ack := make([]byte, deep*ladderMsg), make([]byte, 4)
			reqs := make([]*mpi.Request, deep)
			for r := 0; r < rounds; r++ {
				for i := 0; i < deep; i++ {
					if c.Rank() == 0 {
						reqs[i] = c.Isend(1, deep-1-i, data[i*ladderMsg:(i+1)*ladderMsg])
					} else {
						reqs[i] = c.Irecv(0, i, data[i*ladderMsg:(i+1)*ladderMsg])
					}
				}
				c.Waitall(reqs...)
				if c.Rank() == 0 {
					c.Recv(1, deep, ack)
				} else {
					c.Send(0, deep, ack)
				}
			}
		})
	})
	// 64 messages arrive before any receive for them is posted.
	const early = 64
	l.nsOnly("mpi.unexpected.ns_per_msg", 180*early, func(n int) rung {
		rounds := n/early + 1
		return worldRung(2, mpi.DefaultOptions(core.Static(2*early)), func(c *mpi.Comm) {
			data, ack := make([]byte, early*ladderMsg), make([]byte, 4)
			reqs := make([]*mpi.Request, early)
			for r := 0; r < rounds; r++ {
				if c.Rank() == 0 {
					for i := 0; i < early; i++ {
						reqs[i] = c.Isend(1, i, data[i*ladderMsg:(i+1)*ladderMsg])
					}
					c.Send(1, early, ack)
					c.Waitall(reqs...)
					c.Recv(1, early+1, ack)
				} else {
					c.Recv(0, early, ack)
					for i := 0; i < early; i++ {
						c.Recv(0, i, data[i*ladderMsg:(i+1)*ladderMsg])
					}
					c.Send(0, early+1, ack)
				}
			}
		})
	})
	// The mpi.eager traffic between ranks 0 and 1 of an otherwise idle
	// on-demand world: what a message pays for the world being large.
	big := ample
	big.Chan.OnDemand = true
	l.nsOnly("mpi.eager_1024.ns_per_msg", 2_400, func(n int) rung {
		return worldRung(ranksBig, big, mpiStream(n))
	})
}

// --- coll -------------------------------------------------------------------

func (l *ladder) collRungs() {
	opts := mpi.DefaultOptions(core.Static(100))
	l.full("coll.barrier", "op", 90, func(n int) rung {
		return worldRung(16, opts, func(c *mpi.Comm) {
			for i := 0; i < n; i++ {
				coll.Barrier(c)
			}
		})
	})
	l.full("coll.allreduce8", "op", 90, func(n int) rung {
		return worldRung(16, opts, func(c *mpi.Comm) {
			v := make([]byte, 8)
			for i := 0; i < n; i++ {
				coll.Allreduce(c, v, coll.SumF64)
			}
		})
	})
	l.full("coll.alltoall1k", "op", 30, func(n int) rung {
		return worldRung(16, opts, func(c *mpi.Comm) {
			send, recv := make([]byte, 16<<10), make([]byte, 16<<10)
			for i := 0; i < n; i++ {
				coll.Alltoall(c, send, recv, 1<<10)
			}
		})
	})
	l.full("coll.bcast64k", "op", 90, func(n int) rung {
		return worldRung(16, opts, func(c *mpi.Comm) {
			buf := make([]byte, ladderBig)
			for i := 0; i < n; i++ {
				coll.Bcast(c, 0, buf)
			}
		})
	})
}

// --- nas --------------------------------------------------------------------

// nasRungs runs each kernel once with ample buffers (pre-post 100, the
// paper's Fig. 9 setting): the host cost of a kernel without flow control
// stress, next to its virtual time.
func (l *ladder) nasRungs(className string) {
	class, err := nas.ParseClass(className)
	must(err)
	for _, app := range nas.Apps() {
		c := nasWorld(app, class, core.Static(100))
		c.opts.TimeLimit = timeLimit
		w := mpi.NewWorld(c.n, c.opts)
		cr := &cellRun{}
		t0 := time.Now()
		must(w.Run(func(mc *mpi.Comm) { c.main(&rank{c: mc, cr: cr, id: int32(mc.Rank())}) }))
		wall := time.Since(t0)
		if cr.failed > 0 {
			panic("ladder: nas." + app.Name + ": " + cr.firstErr)
		}
		l.add("nas."+app.Name+".wall_ms", float64(wall)/1e6, "ms", false)
		l.add("nas."+app.Name+".virt_us", w.Time().Micros(), "virt_us", true)
	}
}

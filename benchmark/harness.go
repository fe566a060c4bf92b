package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"ibflow/internal/mpi"
	"ibflow/internal/nas"
	"ibflow/internal/sim"
)

// timeLimit aborts a world that stopped making progress in virtual time;
// no workload comes near it.
const timeLimit = 300 * sim.Second

// rng is splitmix64: the benchmark's own generator, so the program under
// test only ever sees the inputs it produces.
type rng uint64

func (r *rng) next() uint64 {
	*r += 0x9e3779b97f4a7c15
	z := uint64(*r)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) fill(b []byte) {
	for i := 0; i < len(b); i += 8 {
		var w [8]byte
		binary.LittleEndian.PutUint64(w[:], r.next())
		copy(b[i:], w[:])
	}
}

// stamp is the (src, seq) mark every message carries in its first
// min(8, len) bytes.
func stamp(seed uint64, src int, seq uint64) uint64 {
	r := rng(seed ^ uint64(src)<<40 ^ seq)
	return r.next()
}

func putStamp(buf []byte, s uint64) {
	var w [8]byte
	binary.LittleEndian.PutUint64(w[:], s)
	copy(buf, w[:])
}

func stampOK(buf []byte, s uint64) bool {
	var w [8]byte
	binary.LittleEndian.PutUint64(w[:], s)
	n := len(buf)
	if n > 8 {
		n = 8
	}
	return bytes.Equal(buf[:n], w[:n])
}

// cell is one world of a rep: its options, its rank main and the number
// of ops the workload defines for it.
type cell struct {
	label string
	n     int
	opts  mpi.Options
	ops   int
	main  func(r *rank)
}

// cellRun is the state all ranks of one running world share. Rank mains
// are engine-serialized (one runs at a time, handed off through
// channels), so plain fields are race-free.
type cellRun struct {
	seed      uint64
	rec       *recorder // non-nil in the traced rep, which also compares whole payloads
	world     int32
	attempted int
	failed    int
	firstErr  string
	calls     int // harness-level calls into mpi/nas
	blocking  int // of those, the blocking ones
	gHWM      int
}

func (cr *cellRun) fail(format string, a ...any) {
	cr.failed++
	if cr.firstErr == "" {
		cr.firstErr = fmt.Sprintf(format, a...)
	}
}

// rank wraps a rank's communicator: every call into the stack goes
// through it so the harness can count calls and, in the traced rep,
// record a span around each.
type rank struct {
	c  *mpi.Comm
	cr *cellRun
	id int32
}

func (r *rank) Send(dst, tag int, data []byte) {
	r.cr.calls++
	r.cr.blocking++
	if r.cr.rec == nil {
		r.c.Send(dst, tag, data)
		return
	}
	s := r.cr.rec.enter(spanSend, r)
	r.c.Send(dst, tag, data)
	r.cr.rec.exit(s, r)
}

func (r *rank) Recv(src, tag int, buf []byte) mpi.Status {
	r.cr.calls++
	r.cr.blocking++
	if r.cr.rec == nil {
		return r.c.Recv(src, tag, buf)
	}
	s := r.cr.rec.enter(spanRecv, r)
	st := r.c.Recv(src, tag, buf)
	r.cr.rec.exit(s, r)
	return st
}

func (r *rank) Isend(dst, tag int, data []byte) *mpi.Request {
	r.cr.calls++
	if r.cr.rec == nil {
		return r.c.Isend(dst, tag, data)
	}
	s := r.cr.rec.enter(spanIsend, r)
	q := r.c.Isend(dst, tag, data)
	r.cr.rec.exit(s, r)
	return q
}

func (r *rank) Irecv(src, tag int, buf []byte) *mpi.Request {
	r.cr.calls++
	if r.cr.rec == nil {
		return r.c.Irecv(src, tag, buf)
	}
	s := r.cr.rec.enter(spanIrecv, r)
	q := r.c.Irecv(src, tag, buf)
	r.cr.rec.exit(s, r)
	return q
}

func (r *rank) Waitall(reqs []*mpi.Request) {
	r.cr.calls++
	r.cr.blocking++
	if r.cr.rec == nil {
		r.c.Waitall(reqs...)
		return
	}
	s := r.cr.rec.enter(spanWaitall, r)
	r.c.Waitall(reqs...)
	r.cr.rec.exit(s, r)
}

// runNAS runs one kernel on this rank; the whole kernel is one span,
// because its MPI calls are made inside the program.
func (r *rank) runNAS(app nas.App, class nas.Class) error {
	r.cr.calls++
	r.cr.blocking++
	if r.cr.rec == nil {
		return app.Run(r.c, class)
	}
	s := r.cr.rec.enter(spanNAS, r)
	err := app.Run(r.c, class)
	r.cr.rec.exit(s, r)
	return err
}

// check verifies one received application message: source, tag, length
// and stamp always; the whole payload against the sender's template when
// the run asks for it.
func (r *rank) check(st mpi.Status, buf []byte, src, tag int, seq uint64, tmpl []byte) {
	cr := r.cr
	cr.attempted++
	switch {
	case st.Source != src || st.Tag != tag || st.Len != len(buf):
		cr.fail("rank %d: got (src %d, tag %d, len %d), want (%d, %d, %d)",
			r.id, st.Source, st.Tag, st.Len, src, tag, len(buf))
	case !stampOK(buf, stamp(cr.seed, src, seq)):
		cr.fail("rank %d: wrong stamp on message %d from %d", r.id, seq, src)
	case cr.rec != nil && len(buf) > 8 && !bytes.Equal(buf[8:], tmpl[8:len(buf)]):
		cr.fail("rank %d: payload of message %d from %d corrupted", r.id, seq, src)
	}
}

func (r *rank) sampleGoroutines() {
	if g := runtime.NumGoroutine(); g > r.cr.gHWM {
		r.cr.gHWM = g
	}
}

// exact holds everything about a rep that must repeat bit for bit: the
// virtual clock's results and the program's own counters. Two reps of one
// run that differ here count as a failed op.
type exact struct {
	Ops          int
	Events       uint64
	MakespanNS   int64
	BufBytesHWM  int
	Conns        int
	WireMsgs     uint64
	Backlogged   uint64
	ECMs         uint64
	RingSyncs    uint64
	GrowthEvents uint64
	LimitEvents  uint64
	RNRNaks      uint64
	Retransmits  uint64
	WastedBytes  uint64
	RegHits      uint64
	RegMisses    uint64
	Calls        int
	Blocking     int
}

func (e *exact) add(w *mpi.World, ops int, cr *cellRun) {
	st := w.Stats()
	e.Ops += ops
	e.Events += w.Engine().EventsFired()
	e.MakespanNS += int64(w.Time())
	if st.BufBytesHWM > e.BufBytesHWM { // World.Stats takes the max over ranks
		e.BufBytesHWM = st.BufBytesHWM
	}
	e.Conns += st.Conns
	e.WireMsgs += st.MsgsSent
	e.Backlogged += st.Backlogged
	e.ECMs += st.ECMsSent
	e.RingSyncs += st.RingSyncs
	e.GrowthEvents += st.GrowthEvents
	e.LimitEvents += st.LimitEvents
	e.RNRNaks += st.RNRNaks
	e.Retransmits += st.Retransmits
	e.WastedBytes += st.WastedBytes
	e.RegHits += st.RegHits
	e.RegMisses += st.RegMisses
	e.Calls += cr.calls
	e.Blocking += cr.blocking
}

// repResult is one rep of a workload: all its worlds, run one after the
// other.
type repResult struct {
	exact     exact
	attempted int
	failed    int
	firstErr  string
	setup     time.Duration // input generation + mpi.NewWorld
	run       time.Duration // World.Run
	mallocs   uint64        // across World.Run
	bytes     uint64
	liveHeap  uint64 // max over worlds, after a forced GC, world referenced
	gHWM      int
}

// runRep builds and runs every world of one rep. A non-nil rec makes it
// the traced rep: spans on, Options.Settle set, full payload compare and
// World.Audit at the end.
func runRep(wl *workload, sz sizes, seed uint64, rec *recorder) repResult {
	var res repResult
	for i := 0; ; i++ {
		t0 := time.Now()
		c := wl.cell(sz, seed, i)
		if c == nil {
			break
		}
		c.opts.TimeLimit = timeLimit
		c.opts.Settle = rec != nil
		w := mpi.NewWorld(c.n, c.opts)
		res.setup += time.Since(t0)

		cr := &cellRun{seed: seed, rec: rec, world: int32(i)}
		var before, after runtime.MemStats
		var runSpan int32
		if rec != nil {
			runSpan = rec.enterWorld(cr.world, c.label)
		}
		runtime.ReadMemStats(&before)
		t1 := time.Now()
		err := w.Run(func(mc *mpi.Comm) {
			c.main(&rank{c: mc, cr: cr, id: int32(mc.Rank())})
		})
		res.run += time.Since(t1)
		runtime.ReadMemStats(&after)
		if rec != nil {
			rec.exitWorld(runSpan)
		}
		res.mallocs += after.Mallocs - before.Mallocs
		res.bytes += after.TotalAlloc - before.TotalAlloc
		runtime.GC()
		runtime.ReadMemStats(&after)
		if after.HeapAlloc > res.liveHeap {
			res.liveHeap = after.HeapAlloc
		}

		if err != nil {
			// Nothing the world delivered can be trusted.
			cr.attempted, cr.failed = c.ops, c.ops
			cr.firstErr = fmt.Sprintf("%s: World.Run: %v", c.label, err)
		} else if cr.attempted != c.ops {
			cr.fail("%s: verified %d ops, the workload defines %d", c.label, cr.attempted, c.ops)
			cr.attempted = c.ops
		}
		if err == nil && rec != nil {
			if aerr := w.Audit(); aerr != nil {
				cr.fail("%s: World.Audit: %v", c.label, aerr)
			}
		}
		res.exact.add(w, c.ops, cr)
		res.attempted += cr.attempted
		res.failed += cr.failed
		if res.firstErr == "" {
			res.firstErr = cr.firstErr
		}
		if cr.gHWM > res.gHWM {
			res.gHWM = cr.gHWM
		}
		runtime.KeepAlive(w)
		if wl.cold {
			// Hand the dead world's memory back, so every world pays
			// its own heap growth as a real run does. Without this a
			// 1024-rank world's speed depends on how much of its
			// predecessor's heap the runtime's background scavenger
			// happened to have released (2.5 s to 8 s for one world).
			w = nil
			debug.FreeOSMemory()
		}
	}
	return res
}

// summary is a median over reps with its range.
type summary struct {
	Median float64 `json:"median"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	N      int     `json:"n"`
}

func summarize(v []float64) summary {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return summary{}
	}
	med := s[n/2]
	if n%2 == 0 {
		med = (s[n/2-1] + s[n/2]) / 2
	}
	return summary{Median: med, Min: s[0], Max: s[n-1], N: n}
}

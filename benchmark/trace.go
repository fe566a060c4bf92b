package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"strconv"
	"time"
)

// Span names: the harness's own calls into the stack.
const (
	spanRun uint8 = iota
	spanSend
	spanRecv
	spanIsend
	spanIrecv
	spanWaitall
	spanNAS
)

var spanNames = []string{
	"World.Run", "Comm.Send", "Comm.Recv", "Comm.Isend", "Comm.Irecv", "Comm.Waitall", "nas.Run",
}

type span struct {
	name   uint8
	parked bool  // Comm.Time() advanced across the call
	world  int32 // one id per world
	rank   int32 // -1 for World.Run
	parent int32 // the world's World.Run span; -1 for that span itself
	start  int64 // host ns since the recorder started
	end    int64
	vstart int64 // virtual ns at enter
}

// recorder keeps the traced rep's spans in memory and splits World.Run's
// wall time as the span events arrive. Rank mains are engine-serialized,
// so the order in which enter and exit are called is a total order over
// all ranks of a world.
type recorder struct {
	t0     time.Time
	spans  []span
	worlds []string
	run    int32 // open World.Run span

	lastT    int64
	lastRank int32
	lastExit bool // the last event was a rank leaving a call

	app      int64 // a rank between two of its own calls: harness code
	stack    int64 // inside calls and between ranks: mpi -> chdev -> ib -> sim and hand-offs
	finalize int64 // World.Run after the last rank-main event
}

// newRecorder sizes the span slice up front (the measured reps counted
// the calls), so the traced rep does not pay for its growth.
func newRecorder(spans int) *recorder {
	return &recorder{t0: time.Now(), spans: make([]span, 0, spans)}
}

func (rc *recorder) now() int64 { return int64(time.Since(rc.t0)) }

func (rc *recorder) enterWorld(world int32, label string) int32 {
	rc.worlds = append(rc.worlds, label)
	t := rc.now()
	rc.spans = append(rc.spans, span{name: spanRun, world: world, rank: -1, parent: -1, start: t})
	rc.run = int32(len(rc.spans) - 1)
	rc.lastT, rc.lastRank, rc.lastExit = t, -1, false
	return rc.run
}

func (rc *recorder) exitWorld(id int32) {
	t := rc.now()
	rc.spans[id].end = t
	if rc.lastRank >= 0 {
		rc.finalize += t - rc.lastT
	} else {
		rc.stack += t - rc.lastT
	}
}

func (rc *recorder) enter(name uint8, r *rank) int32 {
	t := rc.now()
	if rc.lastExit && rc.lastRank == r.id {
		rc.app += t - rc.lastT
	} else {
		rc.stack += t - rc.lastT
	}
	rc.lastT, rc.lastRank, rc.lastExit = t, r.id, false
	rc.spans = append(rc.spans, span{
		name: name, world: r.cr.world, rank: r.id, parent: rc.run,
		start: t, vstart: int64(r.c.Time()),
	})
	return int32(len(rc.spans) - 1)
}

func (rc *recorder) exit(id int32, r *rank) {
	t := rc.now()
	rc.stack += t - rc.lastT
	rc.lastT, rc.lastRank, rc.lastExit = t, r.id, true
	s := &rc.spans[id]
	s.end = t
	s.parked = int64(r.c.Time()) != s.vstart
}

// inlineCalls describes the rank-main calls that returned without the
// virtual clock moving, that is, without parking the rank: their share of
// all calls and their host latency.
func (rc *recorder) inlineCalls() (share, p50, p99 float64) {
	var d []int64
	calls := 0
	for i := range rc.spans {
		s := &rc.spans[i]
		if s.name == spanRun {
			continue
		}
		calls++
		if !s.parked {
			d = append(d, s.end-s.start)
		}
	}
	if calls == 0 || len(d) == 0 {
		return 0, 0, 0
	}
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	return float64(len(d)) / float64(calls), float64(d[len(d)/2]), float64(d[len(d)*99/100])
}

// write stores the spans as one JSON document, one array per span.
func (rc *recorder) write(path, workload string, seed uint64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintf(w, `{"workload":%q,"seed":%d,"clock":"host ns since the traced rep started","names":[`, workload, seed)
	for i, n := range spanNames {
		if i > 0 {
			w.WriteByte(',')
		}
		fmt.Fprintf(w, "%q", n)
	}
	w.WriteString(`],"worlds":[`)
	for i, n := range rc.worlds {
		if i > 0 {
			w.WriteByte(',')
		}
		fmt.Fprintf(w, "%q", n)
	}
	w.WriteString(`],"columns":["id","parent","world","rank","name","start_ns","end_ns","parked"],"spans":[` + "\n")
	var b []byte
	for i := range rc.spans {
		s := &rc.spans[i]
		b = b[:0]
		if i > 0 {
			b = append(b, ",\n"...)
		}
		b = append(b, '[')
		for j, v := range [...]int64{int64(i), int64(s.parent), int64(s.world), int64(s.rank),
			int64(s.name), s.start, s.end} {
			if j > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, v, 10)
		}
		if s.parked {
			b = append(b, ",1]"...)
		} else {
			b = append(b, ",0]"...)
		}
		w.Write(b)
	}
	w.WriteString("\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

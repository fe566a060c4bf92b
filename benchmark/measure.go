package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metricDef declares an end-to-end metric: which way is better and how
// far its median may worsen before -compare calls it a regression.
// Virtual metrics are exact: any worsening is one.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
	Host   bool // measured on the host clock (the simulator's cost), not the virtual one
}

var endToEnd = []metricDef{
	{"ops_per_s", "op/s", "higher", 0.25, true},
	{"setup_s", "s", "lower", 0.25, true},
	{"allocs_per_op", "1/op", "lower", 0.05, true},
	{"alloc_bytes_per_op", "B/op", "lower", 0.05, true},
	{"live_heap_mb", "MB", "lower", 0.05, true},
	{"peak_rss_mb", "MB", "lower", 0.15, true},
	{"virt_makespan_us", "virt_us", "lower", 0, false},
	{"virt_buf_kb_hwm", "KB", "lower", 0, false},
	{"fail_share", "ratio", "lower", 0, false},
}

// value is one reported number.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// e2eValue is an end-to-end metric of one workload: the median over the
// measured reps with its range, and the rule -compare judges it by.
type e2eValue struct {
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
	summary
}

// layerValue is a per-layer metric. Exact ones are counts the program or
// the virtual clock produced: they repeat bit for bit on one commit.
type layerValue struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Exact bool    `json:"exact,omitempty"`
}

// workloadResult is everything one workload's process measured.
type workloadResult struct {
	Name       string              `json:"name"`
	Seed       uint64              `json:"seed"`
	Reps       int                 `json:"measured_reps"`
	Attempted  int                 `json:"ops_attempted"`
	Failed     int                 `json:"ops_failed"`
	FirstError string              `json:"first_error,omitempty"`
	OpsPerRep  int                 `json:"ops_per_rep"`
	EndToEnd   map[string]e2eValue `json:"end_to_end"`
	PerLayer   []layerValue        `json:"per_layer"`
}

func (r *workloadResult) layer(name string, v float64, unit string, exact bool) {
	r.PerLayer = append(r.PerLayer, layerValue{name, v, unit, exact})
}

// procStatusKB reads a "Vm...:  N kB" line of /proc/self/status.
func procStatusKB(key string) float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), key+":"); ok {
			fields := strings.Fields(rest)
			if len(fields) > 0 {
				kb, _ := strconv.ParseFloat(fields[0], 64)
				return kb
			}
		}
	}
	return 0
}

type cpuSnap struct {
	user, sys, gc float64 // seconds
	numGC         uint64
}

func snapCPU() cpuSnap {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return cpuSnap{user: tv(ru.Utime), sys: tv(ru.Stime), gc: s[0].Value.Float64(), numGC: s[1].Value.Uint64()}
}

// runWorkload runs one workload in this process: an untimed warm-up rep
// where the workload has one, measured reps until both the minimum count
// and the time budget are met, then, if asked, one traced rep. End-to-end
// metrics come from the measured reps only.
func runWorkload(wl *workload, sz sizes, seed uint64, minReps int, budget time.Duration, traced bool, outDir string) (workloadResult, error) {
	res := workloadResult{Name: wl.name, Seed: seed, EndToEnd: map[string]e2eValue{}}
	count := func(r repResult) {
		res.Attempted += r.attempted
		res.Failed += r.failed
		if res.FirstError == "" {
			res.FirstError = r.firstErr
		}
	}
	if !wl.cold {
		count(runRep(wl, sz, seed, nil))
	}

	const maxReps = 64
	cpu0 := snapCPU()
	start := time.Now()
	var reps []repResult
	for {
		r := runRep(wl, sz, seed, nil)
		count(r)
		if len(reps) > 0 && r.exact != reps[0].exact {
			// The virtual clock or a program counter did not repeat.
			res.Failed++
			if res.FirstError == "" {
				res.FirstError = fmt.Sprintf("rep %d: virtual metrics or exact counts differ from rep 0: %+v vs %+v",
					len(reps), r.exact, reps[0].exact)
			}
		}
		reps = append(reps, r)
		fmt.Fprintf(os.Stderr, "benchmark: %s rep %d: setup %.3f s, run %.3f s\n",
			wl.name, len(reps), r.setup.Seconds(), r.run.Seconds())
		// Stop once another rep like this one would overrun the budget.
		if len(reps) >= minReps && (len(reps) == maxReps || time.Since(start)+r.setup+r.run >= budget) {
			break
		}
	}
	cpu1 := snapCPU()
	peakRSS := procStatusKB("VmHWM") / 1024
	res.Reps = len(reps)

	// The traced rep: it adds to the op counts, never to a timing.
	var rec *recorder
	if traced {
		rec = newRecorder(reps[0].exact.Calls + 64)
		count(runRep(wl, sz, seed, rec))
	}

	ex := reps[0].exact
	ops := float64(ex.Ops)
	res.OpsPerRep = ex.Ops
	per := func(f func(r *repResult) float64) summary {
		v := make([]float64, len(reps))
		for i := range reps {
			v[i] = f(&reps[i])
		}
		return summarize(v)
	}
	one := func(v float64) summary { return summary{v, v, v, 1} }
	sums := map[string]summary{
		"ops_per_s":          per(func(r *repResult) float64 { return ops / r.run.Seconds() }),
		"setup_s":            per(func(r *repResult) float64 { return r.setup.Seconds() }),
		"allocs_per_op":      per(func(r *repResult) float64 { return float64(r.mallocs) / ops }),
		"alloc_bytes_per_op": per(func(r *repResult) float64 { return float64(r.bytes) / ops }),
		"live_heap_mb":       per(func(r *repResult) float64 { return float64(r.liveHeap) / (1 << 20) }),
		"peak_rss_mb":        one(peakRSS),
		"virt_makespan_us":   one(float64(ex.MakespanNS) / 1e3),
		"virt_buf_kb_hwm":    one(float64(ex.BufBytesHWM) / 1024),
		"fail_share":         one(float64(res.Failed) / float64(res.Attempted)),
	}
	for _, d := range endToEnd {
		res.EndToEnd[d.Name] = e2eValue{d.Unit, d.Better, d.Bound, sums[d.Name]}
	}

	// Per-layer metrics of this workload: exact counts from the program's
	// public counters and the harness's own, host figures from the runtime.
	runMed := per(func(r *repResult) float64 { return float64(r.run) }).Median
	kop := ops / 1000
	res.layer("sim.events_per_op", float64(ex.Events)/ops, "1/op", true)
	res.layer("sim.ns_per_event", runMed/float64(ex.Events), "ns", false)
	res.layer("ib.rnr_naks_per_kop", float64(ex.RNRNaks)/kop, "1/kop", true)
	res.layer("ib.retransmits_per_kop", float64(ex.Retransmits)/kop, "1/kop", true)
	res.layer("ib.wasted_bytes_per_op", float64(ex.WastedBytes)/ops, "B/op", true)
	res.layer("core.backlogged_per_kop", float64(ex.Backlogged)/kop, "1/kop", true)
	res.layer("core.ecm_per_kop", float64(ex.ECMs)/kop, "1/kop", true)
	res.layer("core.ring_syncs_per_kop", float64(ex.RingSyncs)/kop, "1/kop", true)
	res.layer("core.growth_events", float64(ex.GrowthEvents), "count", true)
	res.layer("core.limit_events", float64(ex.LimitEvents), "count", true)
	res.layer("chdev.wire_msgs_per_op", float64(ex.WireMsgs)/ops, "1/op", true)
	res.layer("chdev.conns", float64(ex.Conns), "count", true)
	hit := 0.0
	if n := ex.RegHits + ex.RegMisses; n > 0 {
		hit = float64(ex.RegHits) / float64(n)
	}
	res.layer("chdev.reg_hit_ratio", hit, "ratio", true)
	res.layer("mpi.calls_per_op", float64(ex.Calls)/ops, "1/op", true)
	res.layer("mpi.blocking_calls_per_op", float64(ex.Blocking)/ops, "1/op", true)
	cpu := (cpu1.user - cpu0.user) + (cpu1.sys - cpu0.sys)
	res.layer("runtime.cpu_s", cpu, "s", false)
	res.layer("runtime.sys_cpu_share", (cpu1.sys-cpu0.sys)/cpu, "ratio", false)
	res.layer("runtime.gc_cpu_pct", 100*(cpu1.gc-cpu0.gc)/cpu, "%", false)
	res.layer("runtime.num_gc", float64(cpu1.numGC-cpu0.numGC), "count", false)
	gHWM := 0
	for i := range reps {
		if reps[i].gHWM > gHWM {
			gHWM = reps[i].gHWM
		}
	}
	res.layer("runtime.goroutines_hwm", float64(gHWM), "count", false)

	if rec == nil {
		return res, nil
	}
	share, p50, p99 := rec.inlineCalls()
	res.layer("trace.app_s", float64(rec.app)/1e9, "s", false)
	res.layer("trace.stack_s", float64(rec.stack)/1e9, "s", false)
	res.layer("trace.finalize_s", float64(rec.finalize)/1e9, "s", false)
	// The traced rep's World.Run up to its last rank-main event against an
	// untraced World.Run: what recording spans costs. What follows that
	// event is mostly the settle phase only the traced rep has.
	res.layer("trace.overhead_pct", 100*(float64(rec.app+rec.stack)/runMed-1), "%", false)
	res.layer("mpi.inline_call_share", share, "ratio", false)
	res.layer("mpi.inline_call_p50_ns", p50, "ns", false)
	res.layer("mpi.inline_call_p99_ns", p99, "ns", false)
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return res, err
	}
	if err := rec.write(filepath.Join(outDir, "trace_"+wl.name+".json"), wl.name, seed); err != nil {
		return res, fmt.Errorf("writing trace: %w", err)
	}
	return res, nil
}

// Command fcbench is the front end of the simulated InfiniBand cluster:
// the paper's micro-benchmarks (latency and window-based bandwidth), one
// NAS kernel, the paper's whole evaluation section, and the sweeps behind
// the committed benchmark documents.
//
// Examples:
//
//	fcbench -test latency -spec 'ranks=2 scheme=static(100)'
//	fcbench -test bandwidth -spec 'ranks=2 scheme=dynamic(10,300)' -size 4 -blocking=false
//	fcbench -test latency -size 64 -metrics-out lat.json
//	fcbench -test latency -spec 'ranks=2 scheme=static(100) eps=4'
//	fcbench -test nas -app LU -class A -spec 'ranks=8 scheme=dynamic(1,300)'
//	fcbench -test paper -quick -only fig9
//	fcbench -test scaling -json > BENCH_scaling.json
//	fcbench -test endpoints -json > BENCH_endpoints.json
//	fcbench -test paper -json > BENCH_paper.json
//
// -spec is the world a run measures, in mpi.Spec's text form (scheme,
// pre-post, endpoints per rank pair, ...): two ranks for -test latency or
// bandwidth; -test nas without it runs the paper's world for -app under
// static(100). -test paper builds the eleven tables of Figures 2-10 and
// Tables 1-2 (NAS class A, or class W with fewer points under -quick);
// -only picks some of them; Figures 2 and 3 also carry the shared and
// rdma schemes. -test scaling runs the connection-scaling benchmark
// (Table-2 style) and -test endpoints sweeps endpoint-set sizes under a
// many-to-one burst. The fixed sweeps build their own worlds and take no
// -spec. The -json forms of scaling, endpoints and paper are the
// BENCH_<test>.json documents at the repo root; the paper document keeps
// every cell at full precision, and its text and CSV forms round. Every
// number in them is virtual, so they repeat byte for byte at
// any GOMAXPROCS (a sweep runs one world per worker, one worker per CPU),
// and `make bench-diff` regenerates them and compares the bytes with the
// committed files.
//
// -metrics-out gives every world the run builds its own metrics registry
// and, after the run, dumps the deterministic metric series in
// -metrics-format: to the path as given when the run built one world, to
// <prefix>-NNN.<ext> in construction order when it built more. Worlds are
// then built one at a time. "perfetto" output carries each world's trace
// ring and opens in ui.perfetto.dev. -cpuprofile FILE and -memprofile FILE
// write runtime/pprof profiles of the run (any -test); both are off unless
// given.
//
// The exit status is 0 for a finished run, 1 for a failed one (a NAS
// kernel that does not verify, a file that cannot be written) and 2 for a
// usage error.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"ibflow/internal/bench"
	"ibflow/internal/core"
	"ibflow/internal/metrics"
	"ibflow/internal/mpi"
	"ibflow/internal/nas"
	"ibflow/internal/trace"
)

// flagVals are the parsed flag values, all but -test.
type flagVals struct {
	spec, metricsOut, metricsFormat, only, app, class, cpuprofile, memprofile string
	size, window, reps, iters, trace                                          int
	blocking, json, quick, csv                                                bool
}

// plan is what checkFlags resolves for the run: the world a latency,
// bandwidth or nas run measures, the nas problem class and the paper
// tables to build.
type plan struct {
	spec   mpi.Spec
	class  nas.Class
	tables []experiment
}

// checkFlags rejects a flag combination the chosen -test would ignore or
// cannot honour, before anything runs, and resolves the run's plan. set
// names the flags given on the command line.
func checkFlags(test string, set map[string]bool, v flagVals) (p plan, err error) {
	if test == "latency" || test == "bandwidth" {
		if p.spec, err = mpi.ParseSpec(v.spec); err != nil {
			return p, err
		}
		if p.spec.Ranks != 2 {
			return p, fmt.Errorf("-test %s measures two ranks; -spec %q has %d", test, v.spec, p.spec.Ranks)
		}
	}
	switch test {
	case "latency":
		if set["window"] {
			return p, errors.New("-window applies to -test bandwidth, not latency")
		}
		if set["reps"] {
			return p, errors.New("-reps applies to -test bandwidth, not latency")
		}
		if set["blocking"] {
			return p, errors.New("-blocking applies to -test bandwidth; the latency ping-pong always blocks")
		}
	case "bandwidth":
		if set["iters"] {
			return p, errors.New("-iters applies to -test latency, not bandwidth")
		}
	case "scaling", "endpoints", "paper":
		sweep := map[string]string{"scaling": "ConnScaling", "endpoints": "EndpointContention", "paper": "Figure2 ... Table2"}[test]
		if set["metrics-out"] && test != "paper" {
			return p, fmt.Errorf("-metrics-out is not supported with -test %s (internal/bench.%s takes no Tune hook)", test, sweep)
		}
		for _, f := range []string{"spec", "size", "window", "reps", "iters", "blocking"} {
			if set[f] {
				return p, fmt.Errorf("-%s does not apply to -test %s (fixed sweep; see internal/bench.%s)", f, test, sweep)
			}
		}
		if test == "paper" {
			if p.tables, err = selectExperiments(v.only); err != nil {
				return p, err
			}
		}
	case "nas":
		for _, f := range []string{"size", "window", "reps", "iters", "blocking", "json"} {
			if set[f] {
				return p, fmt.Errorf("-%s does not apply to -test nas (one kernel, one text report)", f)
			}
		}
		if set["trace"] && v.metricsFormat == "perfetto" {
			return p, errors.New("-trace and -metrics-format perfetto both take the world's tracer; pick one")
		}
		if p.class, err = nas.ParseClass(v.class); err != nil {
			return p, err
		}
		p.spec = bench.PaperSpec(v.app, core.Static(100))
		if set["spec"] {
			if p.spec, err = mpi.ParseSpec(v.spec); err != nil {
				return p, err
			}
		}
	default:
		return p, fmt.Errorf("unknown -test %q (latency|bandwidth|scaling|endpoints|paper|nas)", test)
	}
	for _, f := range []string{"only", "csv"} {
		if set[f] && test != "paper" {
			return p, fmt.Errorf("-%s applies to -test paper only", f)
		}
	}
	for _, f := range []string{"app", "class", "trace"} {
		if set[f] && test != "nas" {
			return p, fmt.Errorf("-%s applies to -test nas only", f)
		}
	}
	switch {
	case v.csv && v.json:
		return p, errors.New("-csv and -json are mutually exclusive")
	case set["quick"] && test != "scaling" && test != "endpoints" && test != "paper":
		return p, errors.New("-quick applies to -test scaling, endpoints and paper only")
	case set["metrics-format"] && v.metricsOut == "":
		return p, errors.New("-metrics-format requires -metrics-out")
	}
	switch v.metricsFormat {
	case "json", "csv", "perfetto":
		return p, nil
	}
	return p, fmt.Errorf("unknown -metrics-format %q (json|csv|perfetto)", v.metricsFormat)
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is fcbench on its arguments and output streams; it returns the exit
// status.
func run(args []string, stdout, stderr io.Writer) int {
	var v flagVals
	fs := flag.NewFlagSet("fcbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	test := fs.String("test", "latency", "benchmark: latency, bandwidth, scaling (connection scaling, all schemes), endpoints (endpoint-set contention, all schemes), paper (the paper's eleven tables) or nas (one NAS kernel)")
	fs.StringVar(&v.spec, "spec", "ranks=2 scheme=static(100)", "the world of -test latency or bandwidth (two ranks) or nas (mpi.Spec: e.g. 'ranks=2 scheme=rdma(8,1024) eps=2'); -test nas defaults to the paper's world for -app under scheme=static(100)")
	fs.IntVar(&v.size, "size", 4, "message size in bytes (bandwidth; latency sweeps unless set)")
	fs.IntVar(&v.window, "window", 0, "bandwidth window size (0 = sweep)")
	fs.IntVar(&v.reps, "reps", 10, "bandwidth repetitions")
	fs.IntVar(&v.iters, "iters", 200, "latency ping-pong iterations")
	fs.BoolVar(&v.blocking, "blocking", true, "use blocking MPI_Send/Recv")
	fs.BoolVar(&v.json, "json", false, "emit machine-readable JSON instead of text")
	fs.StringVar(&v.metricsOut, "metrics-out", "", "dump each world's metrics: to this file for one world, to <prefix>-NNN.<ext> for more (worlds are then built one at a time)")
	fs.StringVar(&v.metricsFormat, "metrics-format", "json", "metric dump format: json, csv, or perfetto")
	fs.BoolVar(&v.quick, "quick", false, "smaller sweep (scaling, endpoints, paper): fewer cells and messages, class W for paper")
	fs.StringVar(&v.only, "only", "", "-test paper: comma-separated subset: fig2 ... fig10, table1, table2, micro (Figures 2-8), nas (Figures 9-10, Tables 1-2)")
	fs.BoolVar(&v.csv, "csv", false, "-test paper: emit tables as CSV instead of aligned text")
	fs.StringVar(&v.app, "app", "IS", "-test nas kernel: IS, FT, LU, CG, MG, BT, SP")
	fs.StringVar(&v.class, "class", "W", "-test nas problem class: S, W, A")
	fs.IntVar(&v.trace, "trace", 0, "-test nas: print the last N protocol trace events")
	fs.StringVar(&v.cpuprofile, "cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof)")
	fs.StringVar(&v.memprofile, "memprofile", "", "write an allocation profile of the run to this file, every allocation sampled (go tool pprof -sample_index=alloc_objects)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	p, err := checkFlags(*test, set, v)
	if err != nil {
		fmt.Fprintln(stderr, "fcbench:", err)
		fs.Usage()
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "fcbench:", err)
		return 1
	}

	var sink *metricsSink
	var tune func(*mpi.Options)
	if v.metricsOut != "" {
		// The sink appends registries as worlds are built: that order is
		// only meaningful (and the append only safe) when worlds are built
		// one at a time, as every sweep with a Tune hook builds them
		// (bench.Workers).
		sink = &metricsSink{path: v.metricsOut, format: v.metricsFormat}
		tune = sink.attach
	}

	// Everything below is the measured run; usage errors returned above.
	stop, err := startProfiles(v.cpuprofile, v.memprofile)
	if err != nil {
		return fail(err)
	}
	code := 0
	switch *test {
	case "latency":
		runLatency(stdout, p.spec, set["size"], v, tune)
	case "bandwidth":
		runBandwidth(stdout, p.spec, v, tune)
	case "scaling":
		doc := bench.ConnScaling(bench.Opts{Quick: v.quick})
		if v.json {
			emitJSON(stdout, doc)
		} else {
			t := bench.ConnScalingTable(doc)
			fmt.Fprint(stdout, t.String())
		}
	case "endpoints":
		doc := bench.EndpointContention(bench.Opts{Quick: v.quick})
		if v.json {
			emitJSON(stdout, doc)
		} else {
			t := bench.EndpointContentionTable(doc)
			fmt.Fprint(stdout, t.String())
		}
	case "paper":
		runPaper(stdout, p.tables, v, tune)
	case "nas":
		code = runNAS(stdout, stderr, p, v, tune)
	}
	if err := stop(); err != nil {
		return fail(err)
	}
	if sink != nil {
		if err := sink.flush(stderr); err != nil {
			return fail(err)
		}
	}
	return code
}

func emitJSON(w io.Writer, v any) {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		panic(err) // plain structs of ints/floats/strings: cannot fail
	}
	w.Write(append(b, '\n'))
}

// metricsSink hands every world the run builds a fresh registry (a
// registry belongs to exactly one world) and, for the perfetto format,
// the only one that reads it, a trace ring; flush writes the dumps out
// afterwards.
type metricsSink struct {
	path, format string
	regs         []*metrics.Registry
	rings        []*trace.Buffer
}

func (s *metricsSink) attach(o *mpi.Options) {
	r := metrics.New()
	o.IB.Metrics = r
	s.regs = append(s.regs, r)
	if s.format == "perfetto" {
		ring := trace.NewBuffer(1 << 14)
		o.IB.Tracer = ring
		s.rings = append(s.rings, ring)
	}
}

// flush writes one dump per world: to the path as given when the run
// built one world, else to <prefix>-NNN.<ext> numbered in construction
// order, prefix being the path less that extension.
func (s *metricsSink) flush(stderr io.Writer) error {
	ext := ".json" // perfetto's trace-event format is JSON too
	if s.format == "csv" {
		ext = ".csv"
	}
	prefix := strings.TrimSuffix(s.path, ext)
	for i, r := range s.regs {
		path := s.path
		if len(s.regs) > 1 {
			path = fmt.Sprintf("%s-%03d%s", prefix, i, ext)
		}
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		switch s.format {
		case "json":
			err = r.WriteJSON(f)
		case "csv":
			err = r.WriteCSV(f)
		case "perfetto":
			err = r.WritePerfetto(f, s.rings[i].Events())
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("writing %s: %w", path, err)
		}
	}
	if len(s.regs) > 1 {
		fmt.Fprintf(stderr, "wrote %d metric dumps to %s-*%s\n", len(s.regs), prefix, ext)
	}
	return nil
}

// startProfiles begins the measured region — after usage errors, before
// the first world is built — and returns the function that ends it: it
// stops the CPU profile and writes the allocation profile, after a GC so
// the in-use numbers are current. With a memPath the runtime records every
// allocation in the region (MemProfileRate 1), so alloc_objects counts are
// exact and a site's count can be compared between two commits. An empty
// path turns that profile off. Read the files with `go tool pprof -top
// FILE`.
func startProfiles(cpuPath, memPath string) (stop func() error, err error) {
	var cpu *os.File
	if cpuPath != "" {
		if cpu, err = os.Create(cpuPath); err != nil {
			return nil, err
		}
		if err = pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, err
		}
	}
	rate := runtime.MemProfileRate
	if memPath != "" {
		runtime.MemProfileRate = 1
	}
	return func() error {
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				return err
			}
		}
		if memPath == "" {
			return nil
		}
		// The profile scales its samples by the current rate: restore it
		// only once the profile is written.
		defer func() { runtime.MemProfileRate = rate }()
		out, err := os.Create(memPath)
		if err != nil {
			return err
		}
		runtime.GC()
		err = pprof.Lookup("allocs").WriteTo(out, 0)
		if cerr := out.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("writing %s: %w", memPath, err)
		}
		return nil
	}, nil
}

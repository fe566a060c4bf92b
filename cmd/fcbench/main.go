// Command fcbench runs the paper's micro-benchmarks (latency and
// window-based bandwidth) on the simulated InfiniBand cluster.
//
// Examples:
//
//	fcbench -test latency -scheme static -prepost 100
//	fcbench -test bandwidth -scheme dynamic -prepost 10 -size 4 -blocking=false
//	fcbench -test latency -size 64 -metrics-out lat.json
//	fcbench -test micro -json > BENCH_micro.json
//	fcbench -test scaling -json > BENCH_scaling.json
//	fcbench -test endpoints -json > BENCH_endpoints.json
//	fcbench -test latency -scheme static -endpoints 4
//
// With -metrics-out the tool runs a single instrumented point (one
// world, one metrics registry) and dumps the deterministic metric
// series in the chosen -metrics-format; "perfetto" output opens in
// ui.perfetto.dev. -test micro sweeps all five schemes through the
// latency and bandwidth tests; with -json it emits the machine-readable
// document stored as BENCH_micro.json at the repo root. -test scaling
// runs the connection-scaling benchmark (all five schemes, Table-2
// style); its -json form is BENCH_scaling.json. -test endpoints sweeps
// endpoint-set sizes under a many-to-one burst (all schemes); its -json
// form is BENCH_endpoints.json. Every number in the three documents is
// virtual, so they repeat byte for byte at any -parallel; `make
// bench-diff` regenerates them and compares the bytes with the committed
// files. -endpoints runs a latency/bandwidth point with an N-endpoint
// set per rank pair. -pool-metrics adds the buffer pool's health gauges
// to a -metrics-out dump (they are opt-in so the fcstats key goldens
// stay byte-stable).
// They count host buffers in use — packets being staged, sent or
// processed — not posted receive descriptors, which hold no buffer.
// -cpuprofile FILE and -memprofile FILE write runtime/pprof profiles of
// the run (any -test); both are off unless given.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"ibflow/internal/bench"
	"ibflow/internal/core"
	"ibflow/internal/metrics"
	"ibflow/internal/mpi"
	"ibflow/internal/prof"
	"ibflow/internal/runner"
	"ibflow/internal/trace"
)

// fail prints a flag-combination error plus usage and exits nonzero.
func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "fcbench: "+format+"\n", args...)
	flag.Usage()
	os.Exit(2)
}

var (
	latSizes  = []int{4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384}
	bwWindows = []int{1, 2, 4, 8, 16, 24, 32, 48, 64, 80, 100}
)

type latPoint struct {
	SizeB int     `json:"size_b"`
	US    float64 `json:"us"`
}

type bwPoint struct {
	Window int     `json:"window"`
	MBs    float64 `json:"mb_s"`
}

// series is one scheme's sweep in the micro document.
type series struct {
	Scheme string    `json:"scheme"`
	Values []float64 `json:"values"`
}

func emitJSON(v any) {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		panic(err) // plain structs of ints/floats/strings: cannot fail
	}
	os.Stdout.Write(append(b, '\n'))
}

// writeMetrics dumps the registry (and, for perfetto, the trace ring)
// to path in the requested format.
func writeMetrics(reg *metrics.Registry, ring *trace.Buffer, path, format string) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fcbench: %v\n", err)
		os.Exit(1)
	}
	switch format {
	case "json":
		err = reg.WriteJSON(f)
	case "csv":
		err = reg.WriteCSV(f)
	case "perfetto":
		err = reg.WritePerfetto(f, ring.Events())
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "fcbench: writing %s: %v\n", path, err)
		os.Exit(1)
	}
}

func main() {
	test := flag.String("test", "latency", "benchmark: latency, bandwidth, micro (all schemes), scaling (connection scaling, all schemes), or endpoints (endpoint-set contention, all schemes)")
	scheme := flag.String("scheme", "static", "flow control scheme: hardware, static, dynamic, shared, rdma")
	prepost := flag.Int("prepost", 100, "pre-posted buffers per connection (ring slots for -scheme rdma)")
	dynmax := flag.Int("dynmax", 300, "dynamic scheme growth cap")
	slotbytes := flag.Int("slotbytes", 0, "ring slot size in bytes (-scheme rdma only; default 1024)")
	size := flag.Int("size", 4, "message size in bytes (bandwidth; latency sweeps unless set)")
	window := flag.Int("window", 0, "bandwidth window size (0 = sweep)")
	reps := flag.Int("reps", 10, "bandwidth repetitions")
	iters := flag.Int("iters", 200, "latency ping-pong iterations")
	blocking := flag.Bool("blocking", true, "use blocking MPI_Send/Recv")
	jsonOut := flag.Bool("json", false, "emit machine-readable JSON instead of text")
	metricsOut := flag.String("metrics-out", "", "write the run's metric dump to this file (single point only)")
	metricsFormat := flag.String("metrics-format", "json", "metric dump format: json, csv, or perfetto")
	quick := flag.Bool("quick", false, "smaller sweep (scaling/endpoints only): fewer cells and messages")
	endpoints := flag.Int("endpoints", 0, "VC/QP endpoints per rank pair (latency/bandwidth; 0 or 1 = classic single connection)")
	parallel := flag.Int("parallel", 0, "worker goroutines for sweeps (0 = one per CPU, 1 = serial); results are identical for every value")
	poolMetrics := flag.Bool("pool-metrics", false, "include the buffer pool's health gauges in the -metrics-out dump (host buffers in use by packets being staged, sent or processed; posted receive descriptors hold none)")
	profiles := prof.Register(flag.CommandLine)
	flag.Parse()

	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })

	// Validate flag combinations before running anything.
	switch *test {
	case "latency":
		if set["window"] {
			fail("-window applies to -test bandwidth, not latency")
		}
		if set["reps"] {
			fail("-reps applies to -test bandwidth, not latency")
		}
		if *metricsOut != "" && !set["size"] {
			fail("-metrics-out instruments a single run: pick one -size")
		}
	case "bandwidth":
		if set["iters"] {
			fail("-iters applies to -test latency, not bandwidth")
		}
		if *metricsOut != "" && !set["window"] {
			fail("-metrics-out instruments a single run: pick one -window")
		}
	case "micro":
		if set["scheme"] {
			fail("-test micro sweeps all schemes; drop -scheme")
		}
		if set["metrics-out"] {
			fail("-metrics-out is not supported with -test micro (many worlds, one registry)")
		}
	case "scaling":
		if set["scheme"] {
			fail("-test scaling sweeps all schemes; drop -scheme")
		}
		if set["metrics-out"] {
			fail("-metrics-out is not supported with -test scaling (many worlds, one registry)")
		}
		for _, f := range []string{"prepost", "dynmax", "slotbytes", "size", "window", "reps", "iters", "blocking", "endpoints"} {
			if set[f] {
				fail("-%s does not apply to -test scaling (fixed sweep; see internal/bench.ConnScaling)", f)
			}
		}
	case "endpoints":
		if set["scheme"] {
			fail("-test endpoints sweeps all schemes; drop -scheme")
		}
		if set["metrics-out"] {
			fail("-metrics-out is not supported with -test endpoints (many worlds, one registry)")
		}
		for _, f := range []string{"prepost", "dynmax", "slotbytes", "size", "window", "reps", "iters", "blocking", "endpoints"} {
			if set[f] {
				fail("-%s does not apply to -test endpoints (fixed sweep; see internal/bench.EndpointContention)", f)
			}
		}
	default:
		fail("unknown -test %q (latency|bandwidth|micro|scaling|endpoints)", *test)
	}
	if set["quick"] && *test != "scaling" && *test != "endpoints" {
		fail("-quick applies to -test scaling and -test endpoints only")
	}
	if *endpoints < 0 {
		fail("-endpoints must be >= 0")
	}
	if set["endpoints"] && *test == "micro" {
		fail("-endpoints applies to -test latency and bandwidth, not micro")
	}
	if *parallel < 0 {
		fail("-parallel must be >= 0")
	}
	if set["parallel"] && *metricsOut != "" {
		fail("-metrics-out instruments a single serial point; drop -parallel")
	}
	workers := *parallel
	if workers == 0 {
		workers = runner.Default()
	}
	if *metricsOut != "" {
		// A single instrumented point shares one registry and trace ring:
		// keep it on the calling goroutine.
		workers = 1
	}
	if set["metrics-format"] && *metricsOut == "" {
		fail("-metrics-format requires -metrics-out")
	}
	if *poolMetrics && *metricsOut == "" {
		fail("-pool-metrics requires -metrics-out (it adds gauges to the metric dump)")
	}
	switch *metricsFormat {
	case "json", "csv", "perfetto":
	default:
		fail("unknown -metrics-format %q (json|csv|perfetto)", *metricsFormat)
	}

	fc, err := bench.ParseScheme(*scheme, *prepost, *dynmax, *slotbytes)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fcbench:", err)
		flag.Usage()
		os.Exit(2)
	}

	// Everything below is the measured run; usage errors exited above.
	defer profiles.Start("fcbench")()

	if *test == "micro" {
		runMicro(*prepost, *dynmax, *size, *iters, *reps, workers, *blocking, *jsonOut)
		return
	}
	if *test == "scaling" {
		doc := bench.ConnScaling(bench.Opts{Quick: *quick, Parallel: workers})
		if *jsonOut {
			emitJSON(doc)
		} else {
			t := bench.ConnScalingTable(doc)
			fmt.Print(t.String())
		}
		return
	}
	if *test == "endpoints" {
		doc := bench.EndpointContention(bench.Opts{Quick: *quick, Parallel: workers})
		if *jsonOut {
			emitJSON(doc)
		} else {
			t := bench.EndpointContentionTable(doc)
			fmt.Print(t.String())
		}
		return
	}

	// One registry + trace ring per process; only ever attached when the
	// run is a single instrumented point (validated above).
	var reg *metrics.Registry
	var ring *trace.Buffer
	if *metricsOut != "" {
		reg = metrics.New()
		ring = trace.NewBuffer(1 << 14)
	}
	tune := func(o *mpi.Options) {
		o.Chan.Endpoints = *endpoints
		o.Chan.PoolMetrics = *poolMetrics
		if reg != nil {
			o.Metrics = reg
			o.Chan.Tracer = ring
			o.IB.Tracer = ring
		}
	}

	switch *test {
	case "latency":
		sizes := latSizes
		if set["size"] {
			sizes = []int{*size}
		}
		points := runner.Map(len(sizes), workers, func(i int) latPoint {
			return latPoint{sizes[i], bench.LatencyOpts(fc, sizes[i], *iters, tune)}
		})
		if *jsonOut {
			emitJSON(struct {
				Test    string     `json:"test"`
				Scheme  string     `json:"scheme"`
				Prepost int        `json:"prepost"`
				Iters   int        `json:"iters"`
				Points  []latPoint `json:"points"`
			}{"latency", *scheme, *prepost, *iters, points})
		} else {
			fmt.Printf("# one-way latency, scheme=%s prepost=%d\n", *scheme, *prepost)
			fmt.Printf("%-10s %s\n", "size(B)", "latency(us)")
			for _, p := range points {
				fmt.Printf("%-10d %.2f\n", p.SizeB, p.US)
			}
		}
	case "bandwidth":
		windows := bwWindows
		if *window > 0 {
			windows = []int{*window}
		}
		points := runner.Map(len(windows), workers, func(i int) bwPoint {
			return bwPoint{windows[i], bench.BandwidthOpts(fc, *size, windows[i], *reps, *blocking, tune)}
		})
		if *jsonOut {
			emitJSON(struct {
				Test     string    `json:"test"`
				Scheme   string    `json:"scheme"`
				Prepost  int       `json:"prepost"`
				SizeB    int       `json:"size_b"`
				Reps     int       `json:"reps"`
				Blocking bool      `json:"blocking"`
				Points   []bwPoint `json:"points"`
			}{"bandwidth", *scheme, *prepost, *size, *reps, *blocking, points})
		} else {
			fmt.Printf("# bandwidth MB/s, scheme=%s prepost=%d size=%dB blocking=%v\n",
				*scheme, *prepost, *size, *blocking)
			fmt.Printf("%-10s %s\n", "window", "MB/s")
			for _, p := range points {
				fmt.Printf("%-10d %.1f\n", p.Window, p.MBs)
			}
		}
	}

	if reg != nil {
		writeMetrics(reg, ring, *metricsOut, *metricsFormat)
	}
}

// runMicro sweeps all five schemes through the latency and bandwidth
// micro-benchmarks (the ring at prepost slots of 2048 bytes); its -json
// form is the BENCH_micro.json document.
func runMicro(prepost, dynmax, size, iters, reps, workers int, blocking, jsonOut bool) {
	schemes := append(bench.Schemes(prepost, dynmax),
		core.Shared(prepost, dynmax), core.RDMA(prepost, 2048))

	// Each (scheme, point) cell is an independent world: sweep the grids
	// through the worker pool and reassemble series in cell-index order.
	latVals := runner.Map(len(schemes)*len(latSizes), workers, func(k int) float64 {
		return bench.Latency(schemes[k/len(latSizes)], latSizes[k%len(latSizes)], iters)
	})
	lat := make([]series, len(schemes))
	for i := range schemes {
		lat[i] = series{schemes[i].Kind.String(), latVals[i*len(latSizes) : (i+1)*len(latSizes)]}
	}
	bwVals := runner.Map(len(schemes)*len(bwWindows), workers, func(k int) float64 {
		return bench.Bandwidth(schemes[k/len(bwWindows)], size, bwWindows[k%len(bwWindows)], reps, blocking)
	})
	bw := make([]series, len(schemes))
	for i := range schemes {
		bw[i] = series{schemes[i].Kind.String(), bwVals[i*len(bwWindows) : (i+1)*len(bwWindows)]}
	}

	if jsonOut {
		doc := struct {
			Benchmark string `json:"benchmark"`
			Prepost   int    `json:"prepost"`
			DynMax    int    `json:"dynmax"`
			Latency   struct {
				Unit   string   `json:"unit"`
				Iters  int      `json:"iters"`
				Sizes  []int    `json:"sizes_b"`
				Series []series `json:"series"`
			} `json:"latency"`
			Bandwidth struct {
				Unit     string   `json:"unit"`
				SizeB    int      `json:"size_b"`
				Reps     int      `json:"reps"`
				Blocking bool     `json:"blocking"`
				Windows  []int    `json:"windows"`
				Series   []series `json:"series"`
			} `json:"bandwidth"`
		}{Benchmark: "micro", Prepost: prepost, DynMax: dynmax}
		doc.Latency.Unit = "us"
		doc.Latency.Iters = iters
		doc.Latency.Sizes = latSizes
		doc.Latency.Series = lat
		doc.Bandwidth.Unit = "MB/s"
		doc.Bandwidth.SizeB = size
		doc.Bandwidth.Reps = reps
		doc.Bandwidth.Blocking = blocking
		doc.Bandwidth.Windows = bwWindows
		doc.Bandwidth.Series = bw
		emitJSON(doc)
		return
	}

	fmt.Printf("# micro suite, prepost=%d dynmax=%d\n", prepost, dynmax)
	fmt.Printf("\n## one-way latency (us)\n%-10s", "size(B)")
	for _, s := range lat {
		fmt.Printf(" %10s", s.Scheme)
	}
	fmt.Println()
	for j, s := range latSizes {
		fmt.Printf("%-10d", s)
		for i := range lat {
			fmt.Printf(" %10.2f", lat[i].Values[j])
		}
		fmt.Println()
	}
	fmt.Printf("\n## bandwidth MB/s (%dB, blocking=%v)\n%-10s", size, blocking, "window")
	for _, s := range bw {
		fmt.Printf(" %10s", s.Scheme)
	}
	fmt.Println()
	for j, w := range bwWindows {
		fmt.Printf("%-10d", w)
		for i := range bw {
			fmt.Printf(" %10.1f", bw[i].Values[j])
		}
		fmt.Println()
	}
}

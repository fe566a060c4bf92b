package main

import (
	"fmt"
	"io"

	"ibflow/internal/bench"
	"ibflow/internal/core"
	"ibflow/internal/mpi"
	"ibflow/internal/runner"
)

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

// runLatency measures the one-way latency of spec at -size, or at every
// size of latSizes when -size is not given.
func runLatency(w io.Writer, spec mpi.Spec, oneSize bool, v flagVals, tune func(*mpi.Options)) {
	sizes := latSizes
	if oneSize {
		sizes = []int{v.size}
	}
	points := runner.Map(len(sizes), bench.Workers(tune), func(i int) latPoint {
		return latPoint{sizes[i], bench.Latency(spec, sizes[i], v.iters, tune)}
	})
	if v.json {
		emitJSON(w, struct {
			Test   string     `json:"test"`
			Spec   string     `json:"spec"`
			Iters  int        `json:"iters"`
			Points []latPoint `json:"points"`
		}{"latency", spec.String(), v.iters, points})
		return
	}
	fmt.Fprintf(w, "# one-way latency, %v\n", spec)
	fmt.Fprintf(w, "%-10s %s\n", "size(B)", "latency(us)")
	for _, p := range points {
		fmt.Fprintf(w, "%-10d %.2f\n", p.SizeB, p.US)
	}
}

// runBandwidth measures the bandwidth of spec at -window, or at every
// window of bwWindows when -window is 0.
func runBandwidth(w io.Writer, spec mpi.Spec, v flagVals, tune func(*mpi.Options)) {
	windows := bwWindows
	if v.window > 0 {
		windows = []int{v.window}
	}
	points := runner.Map(len(windows), bench.Workers(tune), func(i int) bwPoint {
		return bwPoint{windows[i], bench.Bandwidth(spec, v.size, windows[i], v.reps, v.blocking, tune)}
	})
	if v.json {
		emitJSON(w, struct {
			Test     string    `json:"test"`
			Spec     string    `json:"spec"`
			SizeB    int       `json:"size_b"`
			Reps     int       `json:"reps"`
			Blocking bool      `json:"blocking"`
			Points   []bwPoint `json:"points"`
		}{"bandwidth", spec.String(), v.size, v.reps, v.blocking, points})
		return
	}
	fmt.Fprintf(w, "# bandwidth MB/s, %v, size=%dB blocking=%v\n", spec, v.size, v.blocking)
	fmt.Fprintf(w, "%-10s %s\n", "window", "MB/s")
	for _, p := range points {
		fmt.Fprintf(w, "%-10d %.1f\n", p.Window, p.MBs)
	}
}

// The micro suite's provisioning, which its document records: every
// scheme pre-posts microPrepost (the ring has as many 2048-byte slots),
// and the dynamic and shared schemes grow to microDynMax.
const microPrepost, microDynMax = 100, 300

// runMicro sweeps all five schemes through the latency and bandwidth
// micro-benchmarks between two ranks; its -json form is the
// BENCH_micro.json document.
func runMicro(w io.Writer, v flagVals, tune func(*mpi.Options)) {
	schemes := append(bench.Schemes(microPrepost, microDynMax),
		core.Shared(microPrepost, microDynMax), core.RDMA(microPrepost, 2048))

	// Each (scheme, point) cell is an independent world: sweep the grids
	// through the worker pool and reassemble series in cell-index order.
	latVals := runner.Map(len(schemes)*len(latSizes), bench.Workers(tune), func(k int) float64 {
		return bench.Latency(mpi.Spec{Ranks: 2, Scheme: schemes[k/len(latSizes)]}, latSizes[k%len(latSizes)], v.iters, tune)
	})
	lat := make([]series, len(schemes))
	for i := range schemes {
		lat[i] = series{schemes[i].Kind.String(), latVals[i*len(latSizes) : (i+1)*len(latSizes)]}
	}
	bwVals := runner.Map(len(schemes)*len(bwWindows), bench.Workers(tune), func(k int) float64 {
		return bench.Bandwidth(mpi.Spec{Ranks: 2, Scheme: schemes[k/len(bwWindows)]}, v.size, bwWindows[k%len(bwWindows)], v.reps, v.blocking, tune)
	})
	bw := make([]series, len(schemes))
	for i := range schemes {
		bw[i] = series{schemes[i].Kind.String(), bwVals[i*len(bwWindows) : (i+1)*len(bwWindows)]}
	}

	if v.json {
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
		}{Benchmark: "micro", Prepost: microPrepost, DynMax: microDynMax}
		doc.Latency.Unit = "us"
		doc.Latency.Iters = v.iters
		doc.Latency.Sizes = latSizes
		doc.Latency.Series = lat
		doc.Bandwidth.Unit = "MB/s"
		doc.Bandwidth.SizeB = v.size
		doc.Bandwidth.Reps = v.reps
		doc.Bandwidth.Blocking = v.blocking
		doc.Bandwidth.Windows = bwWindows
		doc.Bandwidth.Series = bw
		emitJSON(w, doc)
		return
	}

	fmt.Fprintf(w, "# micro suite, prepost=%d dynmax=%d\n", microPrepost, microDynMax)
	fmt.Fprintf(w, "\n## one-way latency (us)\n%-10s", "size(B)")
	for _, s := range lat {
		fmt.Fprintf(w, " %10s", s.Scheme)
	}
	fmt.Fprintln(w)
	for j, s := range latSizes {
		fmt.Fprintf(w, "%-10d", s)
		for i := range lat {
			fmt.Fprintf(w, " %10.2f", lat[i].Values[j])
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "\n## bandwidth MB/s (%dB, blocking=%v)\n%-10s", v.size, v.blocking, "window")
	for _, s := range bw {
		fmt.Fprintf(w, " %10s", s.Scheme)
	}
	fmt.Fprintln(w)
	for j, win := range bwWindows {
		fmt.Fprintf(w, "%-10d", win)
		for i := range bw {
			fmt.Fprintf(w, " %10.1f", bw[i].Values[j])
		}
		fmt.Fprintln(w)
	}
}

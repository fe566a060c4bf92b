package main

import (
	"fmt"
	"io"

	"ibflow/internal/bench"
	"ibflow/internal/mpi"
	"ibflow/internal/runner"
)

type latPoint struct {
	SizeB int     `json:"size_b"`
	US    float64 `json:"us"`
}

type bwPoint struct {
	Window int     `json:"window"`
	MBs    float64 `json:"mb_s"`
}

// runLatency measures the one-way latency of spec at -size, or at every
// size of the full suite's Figure 2 when -size is not given.
func runLatency(w io.Writer, spec mpi.Spec, oneSize bool, v flagVals, tune func(*mpi.Options)) {
	sizes := bench.Opts{}.LatSizes()
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
// window of the full suite's Figures 3-8 when -window is 0.
func runBandwidth(w io.Writer, spec mpi.Spec, v flagVals, tune func(*mpi.Options)) {
	windows := bench.Opts{}.Windows()
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

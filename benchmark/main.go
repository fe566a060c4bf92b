// Command benchmark is the repo's one benchmark: four workloads on two
// clocks, a per-layer ladder and a traced rep. See README.md.
//
//	go run -C benchmark .                      # everything, writes out/results.json
//	go run -C benchmark . -quick               # the same at test sizes
//	go run -C benchmark . -workload stream -seed 3 -seconds 12 -trace 0
//	go run -C benchmark . -compare a.json b.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// defaultSeconds is BENCHMARK.json's run_seconds: how long one workload
// keeps adding measured reps beyond its minimum.
const defaultSeconds = 12

type options struct {
	seed    uint64
	seconds float64
	quick   bool
	outDir  string
}

func (o options) sizes() sizes {
	if o.quick {
		return quickSizes
	}
	return fullSizes
}

func (o options) budget() time.Duration {
	if o.quick {
		return 0 // the minimum rep count and nothing more
	}
	return time.Duration(o.seconds * float64(time.Second))
}

// part is what one process measures: a workload (with its traced rep when
// asked) or the ladder.
type part struct {
	Workload *workloadResult `json:"workload,omitempty"`
	Ladder   []layerValue    `json:"ladder,omitempty"`
}

func measureWorkload(name string, o options, traced bool) (part, error) {
	wl := workloadByName(name)
	if wl == nil {
		return part{}, fmt.Errorf("unknown workload %q", name)
	}
	reps := minReps
	if o.quick {
		reps = 1
	}
	res, err := runWorkload(wl, o.sizes(), o.seed, reps, o.budget(), traced, o.outDir)
	return part{Workload: &res}, err
}

func main() {
	var o options
	workload := flag.String("workload", "", "run one workload in this process and print the result as one JSON line")
	trace := flag.Int("trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 adds the traced rep and the ladder and reports the per-layer metrics")
	flag.Uint64Var(&o.seed, "seed", 1, "derives payload bytes, the pingpong size order and the storm's peer rotation")
	flag.Float64Var(&o.seconds, "seconds", defaultSeconds, "time budget of a workload's measured reps (never fewer than its minimum rep count)")
	flag.BoolVar(&o.quick, "quick", false, "test sizes: 64-rank storm, class W NAS, one measured rep, ladder at 1/20 length")
	flag.StringVar(&o.outDir, "out", "out", "directory for results.json and the trace files")
	compare := flag.Bool("compare", false, "compare two result files: -compare a.json b.json")
	partFlag := flag.String("part", "", "internal: measure one part (a workload name or \"ladder\") and write it to -detail")
	detail := flag.String("detail", "", "internal: file the part is written to")
	flag.Parse()

	// One P unless the caller says otherwise. A world is engine-serialized:
	// a second P only lets the Go scheduler bounce rank-main hand-offs
	// between cores, which on a 2-core box made ops_per_s both slower and
	// 3-4 times noisier run to run (README, "One P").
	if os.Getenv("GOMAXPROCS") == "" {
		runtime.GOMAXPROCS(1)
	}

	var err error
	switch {
	case *compare:
		if flag.NArg() != 2 {
			err = errors.New("usage: benchmark -compare a.json b.json")
			break
		}
		var ok bool
		if ok, err = compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)); err == nil && !ok {
			os.Exit(1)
		}
	case *partFlag != "":
		err = runPart(*partFlag, *detail, o)
	case *workload != "":
		err = runContract(*workload, *trace != 0, o)
	default:
		err = runAll(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
}

// runContract is the single-workload mode the benchmark driver uses: the
// last line of standard output is one JSON object.
func runContract(name string, traced bool, o options) error {
	p, err := measureWorkload(name, o, traced)
	if err != nil {
		return err
	}
	res := p.Workload
	printWorkload(os.Stdout, res)
	if traced {
		p.Ladder = runLadder(o.sizes())
		printLayers(os.Stdout, "ladder", p.Ladder)
	}
	m := map[string]value{}
	for _, lv := range contractMetrics(p, traced) {
		m[lv.Name] = value{lv.Value, lv.Unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct":   res.Failed == 0,
		"attempted": res.Attempted,
		"failed":    res.Failed,
		"metrics":   m,
	})
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", line)
	return nil
}

// contractMetrics lists what one driver run reports: the host-clock
// end-to-end metrics without tracing; with it, everything else — the
// virtual (exact) end-to-end metrics, the workload's per-layer metrics and
// the ladder.
func contractMetrics(p part, traced bool) []layerValue {
	var out []layerValue
	for _, d := range endToEnd {
		if d.Host != traced {
			out = append(out, layerValue{d.Name, p.Workload.EndToEnd[d.Name].Median, d.Unit, !d.Host})
		}
	}
	if traced {
		out = append(append(out, p.Workload.PerLayer...), p.Ladder...)
	}
	return out
}

// runPart measures one part in this process and writes it to a file for
// the parent to collect.
func runPart(name, file string, o options) error {
	var p part
	var err error
	if name == "ladder" {
		p.Ladder = runLadder(o.sizes())
	} else if p, err = measureWorkload(name, o, true); err != nil {
		return err
	}
	b, err := json.Marshal(p)
	if err != nil {
		return err
	}
	return os.WriteFile(file, b, 0o644)
}

// results is the document -compare reads and baseline.json holds.
type results struct {
	Env       environment                `json:"env"`
	Seed      uint64                     `json:"seed"`
	Quick     bool                       `json:"quick"`
	Seconds   float64                    `json:"seconds"`
	Sizes     sizes                      `json:"sizes"`
	Workloads map[string]*workloadResult `json:"workloads"`
	Ladder    []layerValue               `json:"ladder"`
}

// runAll runs the four workloads and the ladder, each in a child process
// of its own so heap state and the peak-RSS mark do not leak from one to
// the next, one at a time, and writes out/results.json.
func runAll(o options) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return err
	}
	all := results{
		Env: readEnvironment(), Seed: o.seed, Quick: o.quick, Seconds: o.seconds,
		Sizes: o.sizes(), Workloads: map[string]*workloadResult{},
	}
	names := []string{}
	for _, wl := range workloads {
		names = append(names, wl.name)
	}
	for _, name := range append(names, "ladder") {
		fmt.Fprintf(os.Stderr, "benchmark: running %s\n", name)
		file := filepath.Join(o.outDir, "part_"+name+".json")
		args := []string{"-part", name, "-detail", file, "-out", o.outDir,
			"-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(o.seconds)}
		if o.quick {
			args = append(args, "-quick")
		}
		cmd := exec.Command(self, args...)
		cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		b, err := os.ReadFile(file)
		if err != nil {
			return err
		}
		var p part
		if err := json.Unmarshal(b, &p); err != nil {
			return fmt.Errorf("%s: %w", file, err)
		}
		if err := os.Remove(file); err != nil {
			return err
		}
		if p.Workload != nil {
			all.Workloads[name] = p.Workload
		} else {
			all.Ladder = p.Ladder
		}
	}
	printAll(os.Stdout, &all)
	b, err := json.MarshalIndent(&all, "", " ")
	if err != nil {
		return err
	}
	file := filepath.Join(o.outDir, "results.json")
	if err := os.WriteFile(file, append(b, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "benchmark: wrote %s\n", file)
	for _, w := range all.Workloads {
		if w.Failed > 0 {
			return fmt.Errorf("%s: %d of %d ops failed: %s", w.Name, w.Failed, w.Attempted, w.FirstError)
		}
	}
	return nil
}

// environment records where a result file was measured.
type environment struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	GitCommit  string `json:"git_commit"`
}

func readEnvironment() environment {
	env := environment{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   "unknown",
		GitCommit:  "unknown",
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if rest, ok := strings.CutPrefix(line, "model name"); ok {
				env.CPUModel = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
				break
			}
		}
	}
	// Outside a git checkout (the benchmark driver's copy) there is no
	// commit to name.
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		env.GitCommit = strings.TrimSpace(string(out))
	}
	return env
}

// --- report -------------------------------------------------------------------

func printWorkload(w io.Writer, r *workloadResult) {
	fmt.Fprintf(w, "== %s: seed %d, %d measured reps of %d ops, ops_attempted %d, ops_failed %d\n",
		r.Name, r.Seed, r.Reps, r.OpsPerRep, r.Attempted, r.Failed)
	if r.FirstError != "" {
		fmt.Fprintf(w, "   first error: %s\n", r.FirstError)
	}
	for _, d := range endToEnd {
		e := r.EndToEnd[d.Name]
		clock := "virtual"
		if d.Host {
			clock = "host"
		}
		fmt.Fprintf(w, "   %-28s %16.6g %-8s median of %d (min %.6g, max %.6g)  [%s, %s is better]\n",
			d.Name, e.Median, e.Unit, e.N, e.Min, e.Max, clock, e.Better)
	}
	printLayers(w, r.Name, r.PerLayer)
}

func printLayers(w io.Writer, of string, layers []layerValue) {
	fmt.Fprintf(w, "-- %s: per-layer\n", of)
	for _, lv := range layers {
		kind := "host"
		if lv.Exact {
			kind = "exact"
		}
		fmt.Fprintf(w, "   %-32s %16.6g %-8s [%s]\n", lv.Name, lv.Value, lv.Unit, kind)
	}
}

func printAll(w io.Writer, all *results) {
	e := all.Env
	fmt.Fprintf(w, "benchmark: %s, GOMAXPROCS %d of %d CPUs (%s), commit %s, seed %d, quick %v\n",
		e.GoVersion, e.GOMAXPROCS, e.NumCPU, e.CPUModel, e.GitCommit, all.Seed, all.Quick)
	for _, wl := range workloads {
		if r := all.Workloads[wl.name]; r != nil {
			printWorkload(w, r)
		}
	}
	printLayers(w, "ladder", all.Ladder)
}

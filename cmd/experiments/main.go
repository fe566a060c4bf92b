// Command experiments regenerates the paper's evaluation section: the
// eleven tables of Figures 2-10 and Tables 1-2, in that order. Its
// `-json -parallel 1` output is the committed BENCH_paper.json, which
// `make bench-diff` compares byte for byte and TestPaperClaims
// (internal/bench) holds to the shapes the paper reports.
//
//	experiments            # full suite (NAS class A), about 7 s on 2 CPUs
//	experiments -quick     # class W, reduced sweeps
//	experiments -only fig9 # one experiment; also micro (Figures 2-8) or nas (9-10, Tables 1-2)
//	experiments -quick -only fig2 -json          # machine-readable tables
//	experiments -quick -only fig2 -metrics-out m # per-world metric dumps m-000.json, ...
//	experiments -quick -only fig9 -cpuprofile cpu.prof -memprofile mem.prof
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"ibflow/internal/bench"
	"ibflow/internal/metrics"
	"ibflow/internal/mpi"
	"ibflow/internal/prof"
)

// metricsSink hands every simulated world a fresh registry (a registry
// belongs to exactly one world) and writes the dumps out afterwards,
// numbered in world-construction order.
type metricsSink struct {
	prefix string
	regs   []*metrics.Registry
}

func (s *metricsSink) attach(o *mpi.Options) {
	r := metrics.New()
	o.Metrics = r
	s.regs = append(s.regs, r)
}

func (s *metricsSink) flush() error {
	for i, r := range s.regs {
		path := fmt.Sprintf("%s-%03d.json", s.prefix, i)
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		err = r.WriteJSON(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("writing %s: %w", path, err)
		}
	}
	return nil
}

// experiment is one table of the paper: keys name it for -only (its own
// key, then the group it belongs to), run builds it.
type experiment struct {
	keys []string
	run  func(bench.Opts) bench.Table
}

// experiments lists the paper's tables in print order.
var experiments = []experiment{
	{[]string{"fig2", "micro"}, bench.Figure2},
	{[]string{"fig3", "micro"}, bench.Figure3},
	{[]string{"fig4", "micro"}, bench.Figure4},
	{[]string{"fig5", "micro"}, bench.Figure5},
	{[]string{"fig6", "micro"}, bench.Figure6},
	{[]string{"fig7", "micro"}, bench.Figure7},
	{[]string{"fig8", "micro"}, bench.Figure8},
	{[]string{"fig9", "nas"}, func(o bench.Opts) bench.Table { t, _ := bench.Figure9(o); return t }},
	{[]string{"fig10", "nas"}, func(o bench.Opts) bench.Table { t, _ := bench.Figure10(o); return t }},
	{[]string{"table1", "nas"}, bench.Table1},
	{[]string{"table2", "nas"}, bench.Table2},
}

// selectExperiments returns the experiments a comma-separated -only list
// names, in print order; an empty list selects all of them. Keys are
// case-insensitive. A key that names no experiment is an error.
func selectExperiments(only string) ([]experiment, error) {
	want := map[string]bool{}
	for _, k := range strings.Split(only, ",") {
		if k = strings.ToLower(strings.TrimSpace(k)); k != "" {
			want[k] = true
		}
	}
	if len(want) == 0 {
		return experiments, nil
	}
	known := map[string]bool{}
	var sel []experiment
	for _, e := range experiments {
		hit := false
		for _, k := range e.keys {
			known[k] = true
			hit = hit || want[k]
		}
		if hit {
			sel = append(sel, e)
		}
	}
	var bad []string
	for k := range want {
		if !known[k] {
			bad = append(bad, k)
		}
	}
	if len(bad) > 0 {
		sort.Strings(bad)
		return nil, fmt.Errorf("-only names no experiment: %s (keys: fig2 ... fig10, table1, table2, micro, nas)",
			strings.Join(bad, ", "))
	}
	return sel, nil
}

func main() {
	quick := flag.Bool("quick", false, "class W and reduced sweep points")
	only := flag.String("only", "", "comma-separated subset: fig2 ... fig10, table1, table2, micro (Figures 2-8), nas (Figures 9-10, Tables 1-2)")
	csv := flag.Bool("csv", false, "emit tables as CSV instead of aligned text")
	jsonOut := flag.Bool("json", false, "emit tables as one JSON document instead of aligned text")
	metricsOut := flag.String("metrics-out", "", "dump each world's metrics to <prefix>-NNN.json")
	parallel := flag.Int("parallel", 0, "worker goroutines for sweeps (0 = one per CPU, 1 = serial); results are identical for every value")
	profiles := prof.Register(flag.CommandLine)
	flag.Parse()
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })

	if *csv && *jsonOut {
		fmt.Fprintln(os.Stderr, "experiments: -csv and -json are mutually exclusive")
		flag.Usage()
		os.Exit(2)
	}
	if *parallel < 0 {
		fmt.Fprintln(os.Stderr, "experiments: -parallel must be >= 0")
		flag.Usage()
		os.Exit(2)
	}
	if set["parallel"] && *parallel != 1 && *metricsOut != "" {
		fmt.Fprintln(os.Stderr, "experiments: -metrics-out numbers dumps in world-construction order and needs the serial sweep; drop -parallel or pass -parallel 1")
		flag.Usage()
		os.Exit(2)
	}
	selected, err := selectExperiments(*only)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		flag.Usage()
		os.Exit(2)
	}

	o := bench.Opts{Quick: *quick, Parallel: *parallel}
	var sink *metricsSink
	if *metricsOut != "" {
		sink = &metricsSink{prefix: strings.TrimSuffix(*metricsOut, ".json")}
		o.Tune = sink.attach
		// The sink appends registries as worlds are built: that order is
		// only meaningful (and the append only safe) when worlds are built
		// one at a time.
		o.Parallel = 1
	}

	mode := "full (class A)"
	if *quick {
		mode = "quick (class W)"
	}
	if !*jsonOut {
		fmt.Printf("# ibflow experiment suite — %s\n\n", mode)
	}
	var tables []json.RawMessage
	stopProfiles := profiles.Start("experiments")
	for _, e := range selected {
		t := e.run(o)
		switch {
		case *jsonOut:
			tables = append(tables, json.RawMessage(t.JSON()))
		case *csv:
			fmt.Printf("# %s\n%s\n", t.Title, t.CSV())
		default:
			fmt.Println(t.String())
		}
	}
	stopProfiles()
	if *jsonOut {
		doc := struct {
			Mode   string            `json:"mode"`
			Tables []json.RawMessage `json:"tables"`
		}{mode, tables}
		b, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			panic(err)
		}
		os.Stdout.Write(append(b, '\n'))
	}
	if sink != nil {
		if err := sink.flush(); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote %d metric dumps to %s-*.json\n", len(sink.regs), sink.prefix)
	}
}

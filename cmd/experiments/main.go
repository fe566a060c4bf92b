// Command experiments regenerates every table and figure of the paper's
// evaluation section (Figures 2-10, Tables 1-2), plus the ablations and
// the scalability projection described in DESIGN.md.
//
//	experiments            # full suite (NAS class A) — takes a while
//	experiments -quick     # class W, reduced sweeps
//	experiments -only fig9 # one experiment
//	experiments -quick -only fig2 -json          # machine-readable tables
//	experiments -quick -only fig2 -metrics-out m # per-world metric dumps m-000.json, ...
//	experiments -quick -only fig9 -cpuprofile cpu.prof -memprofile mem.prof
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
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

func main() {
	quick := flag.Bool("quick", false, "class W and reduced sweep points")
	only := flag.String("only", "", "comma-separated subset, e.g. fig2,fig9,table1,ablations,scaling")
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
	want := map[string]bool{}
	for _, k := range strings.Split(*only, ",") {
		if k != "" {
			want[strings.ToLower(strings.TrimSpace(k))] = true
		}
	}
	sel := func(keys ...string) bool {
		if len(want) == 0 {
			return true
		}
		for _, k := range keys {
			if want[k] {
				return true
			}
		}
		return false
	}

	type exp struct {
		keys []string
		run  func() bench.Table
	}
	experiments := []exp{
		{[]string{"fig2", "micro"}, func() bench.Table { return bench.Figure2(o) }},
		{[]string{"fig3", "micro"}, func() bench.Table { return bench.Figure3(o) }},
		{[]string{"fig4", "micro"}, func() bench.Table { return bench.Figure4(o) }},
		{[]string{"fig5", "micro"}, func() bench.Table { return bench.Figure5(o) }},
		{[]string{"fig6", "micro"}, func() bench.Table { return bench.Figure6(o) }},
		{[]string{"fig7", "micro"}, func() bench.Table { return bench.Figure7(o) }},
		{[]string{"fig8", "micro"}, func() bench.Table { return bench.Figure8(o) }},
		{[]string{"fig9", "nas"}, func() bench.Table { t, _ := bench.Figure9(o); return t }},
		{[]string{"fig10", "nas"}, func() bench.Table { t, _ := bench.Figure10(o); return t }},
		{[]string{"table1", "nas"}, func() bench.Table { return bench.Table1(o) }},
		{[]string{"table2", "nas"}, func() bench.Table { return bench.Table2(o) }},
		{[]string{"demotion", "ablations"}, func() bench.Table { return bench.AblationDemotion(o) }},
		{[]string{"growth", "ablations"}, func() bench.Table { return bench.AblationGrowth(o) }},
		{[]string{"ecm", "ablations"}, func() bench.Table { return bench.AblationECMThreshold(o) }},
		{[]string{"rnr", "ablations"}, func() bench.Table { return bench.AblationRNRTimeout(o) }},
		{[]string{"eager", "ablations"}, func() bench.Table { return bench.AblationEagerThreshold(o) }},
		{[]string{"shrink", "ablations"}, func() bench.Table { return bench.AblationShrink(o) }},
		{[]string{"rdma", "extensions"}, func() bench.Table { return bench.ExtensionRDMAChannel(o) }},
		{[]string{"collectives", "ablations"}, func() bench.Table { return bench.AblationCollectives(o) }},
		{[]string{"fattree", "extensions"}, func() bench.Table { return bench.ExtensionFatTree(o) }},
		{[]string{"scaling"}, func() bench.Table { return bench.ScalingMeasured(o) }},
		{[]string{"scaling"}, func() bench.Table { return bench.ScalingTable(o) }},
		{[]string{"connscaling", "scaling"}, func() bench.Table { return bench.ConnScalingTable(bench.ConnScaling(o)) }},
	}

	mode := "full (class A)"
	if *quick {
		mode = "quick (class W)"
	}
	if !*jsonOut {
		fmt.Printf("# ibflow experiment suite — %s\n\n", mode)
	}
	ran := 0
	var tables []json.RawMessage
	stopProfiles := profiles.Start("experiments")
	for _, e := range experiments {
		if !sel(e.keys...) {
			continue
		}
		t := e.run()
		switch {
		case *jsonOut:
			tables = append(tables, json.RawMessage(t.JSON()))
		case *csv:
			fmt.Printf("# %s\n%s\n", t.Title, t.CSV())
		default:
			fmt.Println(t.String())
		}
		ran++
	}
	stopProfiles()
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "no experiment matched -only=%s\n", *only)
		os.Exit(2)
	}
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

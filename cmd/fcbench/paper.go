package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"ibflow/internal/bench"
	"ibflow/internal/mpi"
	"ibflow/internal/trace"
)

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

// runPaper builds the selected tables of the paper's evaluation, in print
// order; its full -json form is the BENCH_paper.json document, which
// TestPaperClaims (internal/bench) holds to the shapes the paper reports.
func runPaper(w io.Writer, tables []experiment, v flagVals, tune func(*mpi.Options)) {
	o := bench.Opts{Quick: v.quick, Tune: tune}
	mode := "full (class A)"
	if v.quick {
		mode = "quick (class W)"
	}
	if !v.json {
		fmt.Fprintf(w, "# ibflow experiment suite — %s\n\n", mode)
	}
	var docs []json.RawMessage
	for _, e := range tables {
		t := e.run(o)
		switch {
		case v.json:
			docs = append(docs, json.RawMessage(t.JSON()))
		case v.csv:
			fmt.Fprintf(w, "# %s\n%s\n", t.Title, t.CSV())
		default:
			fmt.Fprintln(w, t.String())
		}
	}
	if v.json {
		emitJSON(w, struct {
			Mode   string            `json:"mode"`
			Tables []json.RawMessage `json:"tables"`
		}{mode, docs})
	}
}

// runNAS executes one NAS kernel in p's world and reports its virtual
// runtime and flow control statistics, then, with -trace, the protocol
// trace. It returns 0 for a verified run and 1 for a failed or unverified
// one.
func runNAS(stdout, stderr io.Writer, p plan, v flagVals, tune func(*mpi.Options)) int {
	var buf *trace.Buffer
	if v.trace > 0 {
		buf = trace.NewBuffer(1 << 16)
		metricsTune := tune
		tune = func(o *mpi.Options) {
			if metricsTune != nil {
				metricsTune(o)
			}
			o.IB.Tracer = buf
		}
	}
	res, err := bench.RunNAS(v.app, p.class, p.spec, tune)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	st := res.Stats
	fmt.Fprintf(stdout, "%s class %v, %v\n", res.App, res.Class, res.Spec)
	fmt.Fprintf(stdout, "  verified:        %v\n", res.Verified)
	for _, e := range res.VerifyErrs {
		fmt.Fprintf(stdout, "  verify error:    %s\n", e)
	}
	fmt.Fprintf(stdout, "  virtual time:    %v\n", res.Time)
	fmt.Fprintf(stdout, "  messages:        %d (eager %d, demoted %d, backlogged %d)\n",
		st.MsgsSent, st.EagerSent, st.Demoted, st.Backlogged)
	fmt.Fprintf(stdout, "  explicit credit: %d (%.1f per connection)\n", st.ECMsSent, res.ECMPerConn)
	fmt.Fprintf(stdout, "  max pre-posted:  %d buffers/connection (growth events %d)\n",
		st.MaxPosted, st.GrowthEvents)
	fmt.Fprintf(stdout, "  transport:       %d RNR NAKs, %d retransmits, %d wasted bytes\n",
		st.RNRNaks, st.Retransmits, st.WastedBytes)
	fmt.Fprintf(stdout, "  registration:    %d hits, %d misses\n", st.RegHits, st.RegMisses)
	fmt.Fprintf(stdout, "  buffer memory:   %.1f KB posted across %d connection ends\n",
		float64(st.BufBytesInUse)/1024, st.Conns)
	if buf != nil {
		fmt.Fprintf(stdout, "\nprotocol event summary (%d events total):\n", buf.Total())
		for _, s := range buf.Summary() {
			fmt.Fprintf(stdout, "  %-14v %d\n", s.Kind, s.Count)
		}
		fmt.Fprintf(stdout, "\nlast %d events:\n", v.trace)
		buf.Dump(stdout, v.trace)
	}
	if !res.Verified {
		return 1
	}
	return 0
}

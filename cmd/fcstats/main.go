// Command fcstats inspects deterministic metric dumps written by
// fcbench -metrics-out.
//
//	fcstats dump.json            # per-metric summary table
//	fcstats old.json new.json    # diff/regression table
//	fcstats -keys dump.json      # sorted canonical keys, one per line
//	fcstats -csv old.json new.json
//	fcstats -allow-new-keys old.json new.json
//
// Histograms are compared by observation count (their Value field);
// gauges by final level; counters by final count.
//
// Diff mode doubles as a regression gate: it exits nonzero when the two
// dumps' key sets diverge. -allow-new-keys tolerates metrics present
// only in the new dump (an additive instrumentation change — new
// counters or gauges — diffs cleanly), while a metric that disappeared
// still fails.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"ibflow/internal/bench"
	"ibflow/internal/metrics"
)

func loadDump(path string) (metrics.Dump, error) {
	f, err := os.Open(path)
	if err != nil {
		return metrics.Dump{}, err
	}
	defer f.Close()
	d, err := metrics.DecodeDump(f)
	if err != nil {
		return metrics.Dump{}, fmt.Errorf("%s: %w", path, err)
	}
	return d, nil
}

// keyList returns the dump's canonical metric keys, sorted.
func keyList(d metrics.Dump) []string {
	keys := make([]string, len(d.Metrics))
	for i := range d.Metrics {
		keys[i] = d.Metrics[i].Key()
	}
	sort.Strings(keys)
	return keys
}

// summaryTable renders one dump: final value and sample count per metric.
func summaryTable(d metrics.Dump) bench.Table {
	t := bench.Table{
		Title:   "metric summary",
		Columns: []bench.Column{{Name: "metric"}, {Name: "kind"}, {Name: "value"}, {Name: "samples"}},
		Note:    fmt.Sprintf("%d samples at %dns interval", len(d.SampleNS), d.IntervalNS),
	}
	for i := range d.Metrics {
		m := &d.Metrics[i]
		t.Rows = append(t.Rows, bench.Row{Labels: []string{m.Key(), m.Kind, fmt.Sprint(m.Value), fmt.Sprint(len(m.Series))}})
	}
	return t
}

// keyDivergence returns the canonical keys present in exactly one of
// the two dumps, sorted.
func keyDivergence(oldD, newD metrics.Dump) (onlyOld, onlyNew []string) {
	oldKeys := map[string]bool{}
	for i := range oldD.Metrics {
		oldKeys[oldD.Metrics[i].Key()] = true
	}
	newKeys := map[string]bool{}
	for i := range newD.Metrics {
		k := newD.Metrics[i].Key()
		newKeys[k] = true
		if !oldKeys[k] {
			onlyNew = append(onlyNew, k)
		}
	}
	for k := range oldKeys {
		if !newKeys[k] {
			onlyOld = append(onlyOld, k)
		}
	}
	sort.Strings(onlyOld)
	sort.Strings(onlyNew)
	return onlyOld, onlyNew
}

// diffTable renders the regression view of two dumps, matched by
// canonical key; metrics present in only one side show "-".
func diffTable(oldD, newD metrics.Dump) bench.Table {
	t := bench.Table{
		Title:   "metric diff (old -> new)",
		Columns: []bench.Column{{Name: "metric"}, {Name: "kind"}, {Name: "old"}, {Name: "new"}, {Name: "delta"}, {Name: "change"}},
	}
	type pair struct {
		kind     string
		old, new *int64
	}
	byKey := map[string]*pair{}
	var order []string
	for i := range oldD.Metrics {
		m := &oldD.Metrics[i]
		k := m.Key()
		byKey[k] = &pair{kind: m.Kind, old: &m.Value}
		order = append(order, k)
	}
	for i := range newD.Metrics {
		m := &newD.Metrics[i]
		k := m.Key()
		p, ok := byKey[k]
		if !ok {
			p = &pair{kind: m.Kind}
			byKey[k] = p
			order = append(order, k)
		}
		p.new = &m.Value
	}
	sort.Strings(order)
	for _, k := range order {
		p := byKey[k]
		oldCell, newCell, deltaCell, changeCell := "-", "-", "-", "-"
		if p.old != nil {
			oldCell = fmt.Sprint(*p.old)
		}
		if p.new != nil {
			newCell = fmt.Sprint(*p.new)
		}
		if p.old != nil && p.new != nil {
			delta := *p.new - *p.old
			deltaCell = fmt.Sprintf("%+d", delta)
			if *p.old != 0 {
				changeCell = fmt.Sprintf("%+.1f%%", float64(delta)/float64(*p.old)*100)
			}
		}
		t.Rows = append(t.Rows, bench.Row{Labels: []string{k, p.kind, oldCell, newCell, deltaCell, changeCell}})
	}
	return t
}

func main() {
	keys := flag.Bool("keys", false, "print sorted canonical metric keys, one per line")
	csv := flag.Bool("csv", false, "emit the table as CSV")
	allowNew := flag.Bool("allow-new-keys", false,
		"diff mode: tolerate metrics present only in the new dump (additive changes)")
	flag.Usage = func() {
		fmt.Fprintln(flag.CommandLine.Output(),
			"usage: fcstats [-keys] [-csv] [-allow-new-keys] <dump.json> [new.json]")
		flag.PrintDefaults()
	}
	flag.Parse()
	args := flag.Args()
	if len(args) < 1 || len(args) > 2 {
		flag.Usage()
		os.Exit(2)
	}
	if *allowNew && len(args) != 2 {
		fmt.Fprintln(os.Stderr, "fcstats: -allow-new-keys applies to diff mode (two dumps)")
		flag.Usage()
		os.Exit(2)
	}

	d, err := loadDump(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "fcstats:", err)
		os.Exit(1)
	}
	if *keys {
		for _, k := range keyList(d) {
			fmt.Println(k)
		}
		return
	}

	var t bench.Table
	var onlyOld, onlyNew []string
	diffMode := len(args) == 2
	if diffMode {
		d2, err := loadDump(args[1])
		if err != nil {
			fmt.Fprintln(os.Stderr, "fcstats:", err)
			os.Exit(1)
		}
		t = diffTable(d, d2)
		onlyOld, onlyNew = keyDivergence(d, d2)
	} else {
		t = summaryTable(d)
	}
	if *csv {
		fmt.Print(t.CSV())
	} else {
		fmt.Print(t.String())
	}
	if !diffMode {
		return
	}
	fail := false
	if len(onlyOld) > 0 {
		fmt.Fprintf(os.Stderr, "fcstats: %d metric(s) disappeared: %v\n", len(onlyOld), onlyOld)
		fail = true
	}
	if len(onlyNew) > 0 {
		if *allowNew {
			fmt.Fprintf(os.Stderr, "fcstats: %d new metric(s) allowed: %v\n", len(onlyNew), onlyNew)
		} else {
			fmt.Fprintf(os.Stderr, "fcstats: %d new metric(s): %v (rerun with -allow-new-keys to accept additive changes)\n",
				len(onlyNew), onlyNew)
			fail = true
		}
	}
	if fail {
		os.Exit(1)
	}
}

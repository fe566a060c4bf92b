package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"ibflow/internal/bench"
)

// runDiff compares two benchmark JSON documents (BENCH_scaling.json or
// BENCH_endpoints.json shaped) cell by cell, benchstat-style, and
// returns the process exit code: 0 when no metric regressed, 1 when any
// deterministic column (virtual time, buffer HWM) or the allocs/msg
// column regressed past the threshold, 2 on operational errors.
//
// Thresholds: time and memory regress at >5% growth. The allocs/msg
// column is host-measured (GC timing jitters it a little even serially),
// so it additionally needs an absolute increase of 0.25 allocations per
// message before it fails the diff — and, whatever the old document says,
// an on-demand cell of the scaling sweep (where connection set-up is
// inside the measured run) may not allocate more than allocGate objects
// per message. Wall-clock columns are never gated — they measure the
// machine, not the code. Cells whose old value is missing (a new column,
// a longer sweep) are reported but never fail.
func runDiff(oldPath, newPath string, stdout, stderr io.Writer) int {
	oldDoc, err := loadBenchDoc(oldPath)
	if err != nil {
		fmt.Fprintf(stderr, "fcbench: %v\n", err)
		return 2
	}
	newDoc, err := loadBenchDoc(newPath)
	if err != nil {
		fmt.Fprintf(stderr, "fcbench: %v\n", err)
		return 2
	}
	if oldDoc.kind != newDoc.kind {
		fmt.Fprintf(stderr, "fcbench: cannot diff %q against %q\n", oldDoc.kind, newDoc.kind)
		return 2
	}

	fmt.Fprintf(stdout, "# %s: %s -> %s (fail on >%.0f%% regression)\n",
		newDoc.kind, oldPath, newPath, regressPct)
	fmt.Fprintf(stdout, "%-14s %-10s %-8s %12s %12s %9s\n",
		"metric", "scheme", "cell", "old", "new", "delta")
	regressions := 0
	for _, r := range diffRows(oldDoc, newDoc) {
		mark := ""
		if r.regressed {
			mark = "  REGRESSED"
			regressions++
		}
		fmt.Fprintf(stdout, "%-14s %-10s %-8s %12s %12s %9s%s\n",
			r.metric, r.scheme, r.cell, r.old, r.new, r.delta, mark)
	}
	if regressions > 0 {
		fmt.Fprintf(stdout, "# %d regression(s)\n", regressions)
		return 1
	}
	fmt.Fprintln(stdout, "# ok")
	return 0
}

const (
	regressPct = 5.0
	// allocSlack is the absolute allocs/msg growth tolerated on top of
	// the percentage threshold: the malloc counter is process-wide, so
	// even serial runs jitter by a few hundredths.
	allocSlack = 0.25
	// allocGate is the absolute bound on allocs/msg at the scaling
	// sweep's on-demand cells: the 1024-rank worlds, whose every message
	// pays its share of establishing the connections it uses (1.00-1.29
	// since a connection end is one object).
	allocGate = 2.0
)

// benchDoc is the diffable view of either benchmark document: metric ->
// scheme -> cell label -> value, plus the cell axis in sweep order.
type benchDoc struct {
	kind    string
	cells   []string
	schemes []string
	// gated holds the cells under the absolute allocGate.
	gated map[string]bool
	// values[metric][scheme][cell]; missing cells are absent keys.
	values map[string]map[string]map[string]float64
}

// gatedMetrics are the columns a regression in which fails the diff, in
// report order. wall_ms is deliberately absent.
var gatedMetrics = []string{"time_ms", "buf_kb_hwm", "allocs_per_msg"}

func loadBenchDoc(path string) (*benchDoc, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var probe struct {
		Benchmark string `json:"benchmark"`
	}
	if err := json.Unmarshal(raw, &probe); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	switch probe.Benchmark {
	case "connscaling":
		var doc bench.ScalingDoc
		if err := json.Unmarshal(raw, &doc); err != nil {
			return nil, fmt.Errorf("%s: %v", path, err)
		}
		return scalingView(&doc), nil
	case "endpoints":
		var doc bench.EndpointDoc
		if err := json.Unmarshal(raw, &doc); err != nil {
			return nil, fmt.Errorf("%s: %v", path, err)
		}
		return endpointView(&doc), nil
	}
	return nil, fmt.Errorf("%s: unknown benchmark %q (connscaling|endpoints)", path, probe.Benchmark)
}

func newBenchView(kind string) *benchDoc {
	return &benchDoc{kind: kind, values: map[string]map[string]map[string]float64{}}
}

func (d *benchDoc) set(metric, scheme, cell string, v float64) {
	m := d.values[metric]
	if m == nil {
		m = map[string]map[string]float64{}
		d.values[metric] = m
	}
	s := m[scheme]
	if s == nil {
		s = map[string]float64{}
		m[scheme] = s
	}
	s[cell] = v
}

func (d *benchDoc) get(metric, scheme, cell string) (float64, bool) {
	v, ok := d.values[metric][scheme][cell]
	return v, ok
}

func scalingView(doc *bench.ScalingDoc) *benchDoc {
	d := newBenchView("connscaling")
	d.gated = map[string]bool{}
	for _, n := range doc.Ranks {
		d.cells = append(d.cells, fmt.Sprint(n))
		d.gated[fmt.Sprint(n)] = n >= doc.OnDemandFrom
	}
	for _, s := range doc.Series {
		d.schemes = append(d.schemes, s.Scheme)
		for i := range doc.Ranks {
			cell := fmt.Sprint(doc.Ranks[i])
			if i < len(s.TimeMS) {
				d.set("time_ms", s.Scheme, cell, s.TimeMS[i])
			}
			if i < len(s.BufBytesHWM) {
				d.set("buf_kb_hwm", s.Scheme, cell, float64(s.BufBytesHWM[i])/1024)
			}
			if i < len(s.AllocsPerMsg) {
				d.set("allocs_per_msg", s.Scheme, cell, s.AllocsPerMsg[i])
			}
		}
	}
	return d
}

func endpointView(doc *bench.EndpointDoc) *benchDoc {
	d := newBenchView("endpoints")
	for _, n := range doc.Endpoints {
		d.cells = append(d.cells, fmt.Sprint(n))
	}
	for _, s := range doc.Series {
		d.schemes = append(d.schemes, s.Scheme)
		for i := range doc.Endpoints {
			cell := fmt.Sprint(doc.Endpoints[i])
			if i < len(s.TimeMS) {
				d.set("time_ms", s.Scheme, cell, s.TimeMS[i])
			}
			if i < len(s.BufBytesHWM) {
				d.set("buf_kb_hwm", s.Scheme, cell, float64(s.BufBytesHWM[i])/1024)
			}
			if i < len(s.AllocsPerMsg) {
				d.set("allocs_per_msg", s.Scheme, cell, s.AllocsPerMsg[i])
			}
		}
	}
	return d
}

// diffRow is one rendered comparison line.
type diffRow struct {
	metric, scheme, cell string
	old, new, delta      string
	regressed            bool
}

// diffRows walks the new document's axes (its sweep defines the cells
// under test) and compares each against the old document.
func diffRows(oldDoc, newDoc *benchDoc) []diffRow {
	var rows []diffRow
	for _, metric := range gatedMetrics {
		for _, scheme := range newDoc.schemes {
			for _, cell := range newDoc.cells {
				nv, ok := newDoc.get(metric, scheme, cell)
				if !ok {
					continue
				}
				row := diffRow{metric, scheme, cell, "-", fmt.Sprintf("%.3f", nv), "new", false}
				if ov, ok := oldDoc.get(metric, scheme, cell); ok {
					row = compareCell(metric, scheme, cell, ov, nv)
				}
				if metric == "allocs_per_msg" && newDoc.gated[cell] && nv > allocGate {
					row.delta += fmt.Sprintf(" >%g", allocGate)
					row.regressed = true
				}
				rows = append(rows, row)
			}
		}
	}
	return rows
}

func compareCell(metric, scheme, cell string, ov, nv float64) diffRow {
	row := diffRow{metric: metric, scheme: scheme, cell: cell,
		old: fmt.Sprintf("%.3f", ov), new: fmt.Sprintf("%.3f", nv)}
	if ov == 0 {
		if nv == 0 {
			row.delta = "0%"
		} else {
			row.delta = "+inf"
			row.regressed = true
		}
		return row
	}
	pct := (nv - ov) / ov * 100
	row.delta = fmt.Sprintf("%+.1f%%", pct)
	row.regressed = pct > regressPct
	if metric == "allocs_per_msg" && nv-ov <= allocSlack {
		row.regressed = false
	}
	return row
}

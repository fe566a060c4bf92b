package mpi

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"reflect"
	"sort"
	"strings"
	"testing"

	"ibflow/internal/chdev"
	"ibflow/internal/core"
	"ibflow/internal/fault"
	"ibflow/internal/golden"
	"ibflow/internal/metrics"
	"ibflow/internal/trace"
)

// The semantic goldens pin what seeded worlds observably do, one number
// per line of testdata/semantic.golden, each line `cell name value`: the
// makespan and event count, every non-zero device and fault counter by
// field name, the trace event count per kind, and three digests — the
// ordered trace event stream (every sim timestamp), the metrics dump
// bytes and the dump's key inventory. A change in simulated behaviour
// moves the lines of the numbers it moves; a counter added, renamed or
// deleted while zero moves none. `make goldens` re-pins the file.

// semanticCell is one pinned world. A settled cell is audited; its
// Settle-off twin is the same faulty world ending at MPI_Finalize,
// unaudited, and pins what a change to the settlement mechanism must not
// move — everything up to finalize.
type semanticCell struct {
	name   string
	spec   Spec
	settle bool
}

// semanticCells enumerates the pinned settled worlds: the fault rows of
// the five torture schemes (the ring scheme is the RDMA eager channel)
// and of the on-demand connection path. One fixed seed, 0x5eed7, for
// every cell — determinism of the engine (same world, same bytes) is
// already pinned by the torture rerun tests; this file pins the numbers
// themselves. TestSemanticGoldens also pins each one's Settle-off twin.
func semanticCells() []semanticCell {
	const seed = 0x5eed7
	var cells []semanticCell
	for _, fc := range tortureSchemes {
		cells = append(cells, semanticCell{fc.Kind.String(), faultRow(Spec{Ranks: 4, Scheme: fc}, seed), true})
	}
	return append(cells, semanticCell{"dynamic-ondemand",
		faultRow(Spec{Ranks: 4, Scheme: core.Dynamic(1, 64), OnDemand: true}, seed), true})
}

// noSettle is the cell's Settle-off twin.
func (c semanticCell) noSettle() semanticCell {
	return semanticCell{c.name + "-nosettle", c.spec, false}
}

// faultRunLines appends the golden lines of one fault run.
func faultRunLines(t *testing.T, b []byte, cell string, res faultRunResult) []byte {
	b = fmt.Appendf(b, "%s makespan_ns %d\n%s events %d\n", cell, int64(res.makespan), cell, len(res.events))
	b = golden.Fields(b, cell, res.stats)
	b = golden.Fields(b, cell, res.fstats)
	var kinds [256]int
	events := sha256.New()
	for _, e := range res.events {
		kinds[e.Kind]++
		io.WriteString(events, digestEvent(e))
	}
	for k, n := range kinds {
		if n > 0 {
			b = fmt.Appendf(b, "%s events.%v %d\n", cell, trace.Kind(k), n)
		}
	}
	b = fmt.Appendf(b, "%s events_digest %x\n", cell, events.Sum(nil))
	b = fmt.Appendf(b, "%s metrics_digest %x\n", cell, sha256.Sum256(res.metricsJSON))
	return fmt.Appendf(b, "%s metric_keys_digest %x\n", cell, digestMetricKeys(t, res.metricsJSON))
}

// digestEvent is one trace event's line of the event digest: every
// field, written out rather than through Event.String, which prints for
// people and may leave one out (TestGoldenLinesCoverEveryField).
func digestEvent(e trace.Event) string {
	return fmt.Sprintf("ev %d %d %d %d %d %d\n", int64(e.T), e.Rank, e.Peer, uint8(e.Kind), e.Seq, e.Arg)
}

// TestGoldenLinesCoverEveryField: a field the golden writers leave out
// would never reach a golden, so each field of trace.Event, chdev.Stats
// and fault.Stats in turn, set to 1 on a zero value, must change its
// event line or write a line that names it.
func TestGoldenLinesCoverEveryField(t *testing.T) {
	for _, zero := range []any{trace.Event{}, chdev.Stats{}, fault.Stats{}} {
		typ := reflect.TypeOf(zero)
		for i := range typ.NumField() {
			v := reflect.New(typ).Elem()
			name := typ.String() + "." + typ.Field(i).Name
			switch f := v.Field(i); {
			case f.CanInt():
				f.SetInt(1)
			case f.CanUint():
				f.SetUint(1)
			default:
				t.Errorf("%s is a %v: the golden writers print integers only", name, f.Kind())
				continue
			}
			if e, ok := v.Interface().(trace.Event); ok {
				if digestEvent(e) == digestEvent(trace.Event{}) {
					t.Errorf("digestEvent does not write %s", name)
				}
			} else if got := string(golden.Fields(nil, "cell", v.Interface())); got != "cell "+name+" 1\n" {
				t.Errorf("statLines wrote %q for %s", got, name)
			}
		}
	}
}

// digestMetricKeys hashes the sorted canonical key inventory of a
// metrics dump — the fcstats -keys view of the run.
func digestMetricKeys(t *testing.T, dump []byte) []byte {
	t.Helper()
	d, err := metrics.DecodeDump(bytes.NewReader(dump))
	if err != nil {
		t.Fatalf("metrics dump: %v", err)
	}
	keys := make([]string, len(d.Metrics))
	for i := range d.Metrics {
		keys[i] = d.Metrics[i].Key()
	}
	sort.Strings(keys)
	sum := sha256.Sum256([]byte(strings.Join(keys, "\n") + "\n"))
	return sum[:]
}

func TestSemanticGoldens(t *testing.T) {
	b := []byte("# cell name value (TestSemanticGoldens; `make goldens` re-pins)\n")
	for _, settled := range semanticCells() {
		for _, cell := range []semanticCell{settled, settled.noSettle()} {
			res, err := faultTorture(cell.spec, cell.settle)
			if err != nil {
				t.Fatalf("%s: %v", cell.name, err)
			}
			b = faultRunLines(t, append(b, '\n'), cell.name, res)
		}
	}
	golden.Check(t, "testdata/semantic.golden", b)
}

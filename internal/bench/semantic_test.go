package bench

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"ibflow/internal/core"
	"ibflow/internal/mpi"
)

// The figure-suite semantic goldens pin benchmark outputs across the
// goroutine-to-handler migration: the all-to-all storm's virtual-time
// results must stay byte-identical for every scheme. (The figures
// themselves are gated at class A by BENCH_paper.json and make
// bench-diff.) Host-side quantities (wall clock, heap, goroutines) are
// deliberately absent — they are measurements about the simulator, not
// of the simulated machine, and are not deterministic.
//
// Regenerate (only for an intentional semantic change) with:
//
//	IBFLOW_UPDATE_GOLDENS=1 go test -run TestFigureGoldens ./internal/bench

type figureGolden struct {
	// Storm maps scheme name to "makespanNS/maxHWM/stats" digests of an
	// 8-rank all-to-all storm — the scaling benchmark's cell shape.
	Storm map[string]string `json:"storm"`
}

func sha(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// allToAllStorm is the storm main the goldens were captured with: every
// rank exchanges msgs messages of size bytes with every other rank, in
// ascending-peer posting order. The production benchmark has since moved
// to the stride-ordered scalingStorm; this fixed shape stays here so the
// pinned digests keep meaning "the engine conversion moved nothing".
func allToAllStorm(msgs, size int) func(c *mpi.Comm) {
	return func(c *mpi.Comm) {
		me, n := c.Rank(), c.Size()
		var reqs []*mpi.Request
		for p := 0; p < n; p++ {
			if p == me {
				continue
			}
			for m := 0; m < msgs; m++ {
				reqs = append(reqs, c.Irecv(p, m, make([]byte, size)))
			}
		}
		for p := 0; p < n; p++ {
			if p == me {
				continue
			}
			for m := 0; m < msgs; m++ {
				reqs = append(reqs, c.Isend(p, m, make([]byte, size)))
			}
		}
		c.Waitall(reqs...)
	}
}

// stormDigest runs one 8-rank storm cell and folds its deterministic
// outputs (virtual time, per-rank buffer HWMs, aggregate stats).
func stormDigest(t *testing.T, fc core.Params) string {
	t.Helper()
	const ranks, msgs, size = 8, 6, 256
	opts := mpi.DefaultOptions(fc)
	opts.TimeLimit = timeLimit
	w := mpi.NewWorld(ranks, opts)
	if err := w.Run(allToAllStorm(msgs, size)); err != nil {
		t.Fatalf("storm %v: %v", fc.Kind, err)
	}
	var b []byte
	b = fmt.Appendf(b, "makespan %d\n", int64(w.Time()))
	for i := 0; i < ranks; i++ {
		b = fmt.Appendf(b, "rank %d hwm %d\n", i, w.RankStats(i).BufBytesHWM)
	}
	b = fmt.Appendf(b, "stats %+v\n", w.Stats())
	return sha(string(b))
}

func TestFigureGoldens(t *testing.T) {
	path := filepath.Join("testdata", "figure_goldens.json")
	got := figureGolden{Storm: map[string]string{}}
	for _, fc := range connScalingSchemes(8, 64, 16, 96, 8, 1024) {
		got.Storm[fc.Kind.String()] = stormDigest(t, fc)
	}
	if os.Getenv("IBFLOW_UPDATE_GOLDENS") != "" {
		buf, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", path)
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with IBFLOW_UPDATE_GOLDENS=1 to capture): %v", err)
	}
	var want figureGolden
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	for scheme, d := range got.Storm {
		if w, ok := want.Storm[scheme]; !ok {
			t.Errorf("storm %s: no golden entry", scheme)
		} else if d != w {
			t.Errorf("storm %s: virtual-time results drifted (digest %s != %s)", scheme, d, w)
		}
	}
}

package mpi

import (
	"strings"
	"testing"

	"ibflow/internal/chdev"
	"ibflow/internal/core"
	"ibflow/internal/fault"
)

// specsRun are the specs the repository runs, one of each shape:
// fcbench's latency and nas defaults, the metric-smoke points, the micro,
// scaling and endpoint document cells, the paper's NAS worlds, the
// torture rows, every fault row (faultRow: the crossbar sweep at seed 0,
// the multirail sweep, the semantic cells, the endpoint rerun) and the
// observer tests' plans. FuzzSpec's seed corpus
// (testdata/fuzz/FuzzSpec) holds every torture and fault row, the tool
// defaults and each scheme's BENCH cells at every world shape.
var specsRun = []string{
	"ranks=2 scheme=static(100)",
	"ranks=2 scheme=rdma(8,1024)",
	"ranks=2 scheme=static(100) eps=2",
	"ranks=2 scheme=hardware(100)",
	"ranks=2 scheme=dynamic(100,300)",
	"ranks=2 scheme=shared(100,300)",
	"ranks=2 scheme=rdma(100,2048)",
	"ranks=2 scheme=dynamic(10,300)",
	"ranks=8 scheme=static(100)",
	"ranks=8 scheme=hardware(1)",
	"ranks=8 scheme=dynamic(1,300)",
	"ranks=16 pernode=2 scheme=static(100)",
	"ranks=16 pernode=2 scheme=dynamic(1,300)",
	"ranks=24 scheme=shared(16,96)",
	"ranks=64 fabric=fattree(32,2) rails=2 scheme=dynamic(8,64)",
	"ranks=128 fabric=fattree(32,2) rails=2 scheme=static(8)",
	"ranks=1024 fabric=fattree(32,2) rails=2 scheme=rdma(8,1024) ondemand",
	"ranks=1024 fabric=fattree(32,2) rails=2 scheme=shared(16,96) ondemand",
	"ranks=128 fabric=fattree(32,2) rails=2 scheme=hardware(8) eps=4",
	"ranks=16 scheme=hardware(4) eps=8",
	"ranks=8 scheme=rdma(8,1024) eps=2",
	"ranks=4 scheme=dynamic(1,64)",
	"ranks=4 pernode=2 scheme=shared(4,64)",
	"ranks=4 fabric=fattree(2,1) rails=2 scheme=rdma(4,1024)",
	"ranks=4 scheme=hardware(2) eps=2",
	"ranks=4 scheme=static(2) ondemand",
	"ranks=4 scheme=dynamic(1,64) ondemand",
	"ranks=4 scheme=hardware(2) faults=" + faultMix,
	"ranks=4 scheme=static(2) faults=" + faultMix,
	"ranks=4 scheme=dynamic(1,64) faults=" + faultMix,
	"ranks=4 scheme=shared(4,64) faults=" + faultMix,
	"ranks=4 scheme=rdma(4,1024) faults=" + faultMix,
	"ranks=4 fabric=fattree(2,1) rails=2 scheme=hardware(2) faults=seed(63)+" + faultMix,
	"ranks=4 fabric=fattree(2,1) rails=2 scheme=static(2) faults=seed(63)+" + faultMix,
	"ranks=4 fabric=fattree(2,1) rails=2 scheme=dynamic(1,64) faults=seed(63)+" + faultMix,
	"ranks=4 fabric=fattree(2,1) rails=2 scheme=shared(4,64) faults=seed(63)+" + faultMix,
	"ranks=4 fabric=fattree(2,1) rails=2 scheme=rdma(4,1024) faults=seed(63)+" + faultMix,
	"ranks=4 scheme=hardware(2) faults=seed(388823)+" + faultMix,
	"ranks=4 scheme=static(2) faults=seed(388823)+" + faultMix,
	"ranks=4 scheme=dynamic(1,64) faults=seed(388823)+" + faultMix,
	"ranks=4 scheme=shared(4,64) faults=seed(388823)+" + faultMix,
	"ranks=4 scheme=rdma(4,1024) faults=seed(388823)+" + faultMix,
	"ranks=4 scheme=dynamic(1,64) ondemand faults=seed(388823)+" + faultMix,
	"ranks=4 scheme=dynamic(1,64) eps=2 faults=seed(63)+" + faultMix,
	"ranks=2 scheme=static(8) faults=seed(1)",
	"ranks=2 scheme=static(8) faults=seed(1)+ecmdrop(50)",
	"ranks=2 scheme=static(8) faults=seed(1)+jitter(50)+outages(2)",
	"ranks=4 pernode=2 scheme=static(8) faults=seed(1)+outages(16)",
}

// specOptions returns the options of the world text describes.
func specOptions(t *testing.T, text string) Options {
	t.Helper()
	s, err := ParseSpec(text)
	if err != nil {
		t.Fatal(err)
	}
	return s.Options()
}

// TestParseSpec runs the spec grammar: every spec the repository runs
// parses and prints back byte for byte, and every malformed, invalid or
// non-canonical one is an error naming what is wrong — never a world
// that panics in NewWorld.
func TestParseSpec(t *testing.T) {
	for _, text := range specsRun {
		s, err := ParseSpec(text)
		if err != nil {
			t.Errorf("%s: %v", text, err)
			continue
		}
		if got := s.String(); got != text {
			t.Errorf("%s prints back as %s", text, got)
		}
	}
	s, err := ParseSpec("ranks=1024 fabric=fattree(32,2) rails=2 scheme=rdma(8,1024) eps=2 ondemand")
	want := Spec{Ranks: 1024, LeafRadix: 32, Oversub: 2, Rails: 2, Scheme: core.RDMA(8, 1024), Endpoints: 2, OnDemand: true}
	if err != nil || s != want {
		t.Errorf("ParseSpec = %+v, %v; want %+v", s, err, want)
	}
	s, err = ParseSpec("ranks=4 scheme=static(2) faults=seed(7)+jitter(20)+outages(2)+ecmdrop(30)+ecmdup(20)+rnr(25)+ack(10)")
	want = Spec{Ranks: 4, Scheme: core.Static(2), Faults: fault.Config{Seed: 7, JitterPct: 20,
		OutageCount: 2, ECMDropPct: 30, ECMDupPct: 20, RNRForcePct: 25, AckDelayPct: 10}}
	if err != nil || s != want {
		t.Errorf("ParseSpec = %+v, %v; want %+v", s, err, want)
	}

	for _, c := range []struct{ text, want string }{
		{"ranks=2 scheme=static(100,300)", "static takes 1 arguments"},
		{"ranks=2 scheme=dynamic(100)", "dynamic takes 2 arguments"},
		{"ranks=2 scheme=rdma(8,4096)", "ring slot size 4096 exceeds staging buffer size 2048"},
		{"ranks=2 scheme=rdma(8,32)", "rdma slot size 32 < 64"},
		{"ranks=2 scheme=dynamic(10,5)", "max 5 < initial prepost 10"},
		{"ranks=2 scheme=static(0)", `"0" is not a number`},
		{"ranks=2 scheme=nosuch(1)", `unknown scheme "nosuch"`},
		{"ranks=2 scheme=static", `"static" is not static(...)`},
		{"ranks=0 scheme=static(100)", `"0" is not a number`},
		{"ranks=2 pernode=0 scheme=static(100)", `"0" is not a number`},
		{"ranks=2 scheme=static(100) eps=0", `"0" is not a number`},
		{"ranks=2 fabric=fattree(0,1) scheme=static(100)", `"0" is not a number`},
		{"ranks=2 fabric=crossbar scheme=static(100)", `"crossbar" is not fattree(...)`},
		{"ranks=2 scheme=rdma(1048577,1024)", "not a number in [1, 1048576]"},
		{"ranks=2 scheme=static(100) bogus=1", `unknown key "bogus"`},
		{"ranks=2 scheme=static(100) ondemand=1", `write "ranks=2 scheme=static(100) ondemand"`},
		{"ranks=2 ranks=4 scheme=static(100)", `write "ranks=4 scheme=static(100)"`},
		{"scheme=static(100) ranks=2", `write "ranks=2 scheme=static(100)"`},
		{"ranks=2 scheme=static(100) ondemand eps=2", `write "ranks=2 scheme=static(100) eps=2 ondemand"`},
		{"ranks=2 pernode=1 scheme=static(100)", `write "ranks=2 scheme=static(100)"`},
		{"ranks=2 rails=1 scheme=static(100)", `write "ranks=2 scheme=static(100)"`},
		{"ranks=2 scheme=static(100) eps=1", `write "ranks=2 scheme=static(100)"`},
		{"ranks=02 scheme=static(100)", `write "ranks=2 scheme=static(100)"`},
		{"ranks=2  scheme=static(100)", `unknown key ""`},
		{"ranks=2", "ranks= and scheme= are required"},
		{"scheme=static(100)", "ranks= and scheme= are required"},
		{"", `unknown key ""`},
		{"ranks=2 scheme=static(100) faults=jitter(0)", `"0" is not a number`},
		{"ranks=2 scheme=static(100) faults=seed(0)", `"0" is not a number`},
		{"ranks=2 scheme=static(100) faults=jitter(101)", `"jitter(101)" is not a percent in [1, 100]`},
		{"ranks=2 scheme=static(100) faults=jitter(20)+seed(1)", `write "ranks=2 scheme=static(100) faults=seed(1)+jitter(20)"`},
		{"ranks=2 scheme=static(100) faults=seed(1)+seed(2)", `write "ranks=2 scheme=static(100) faults=seed(2)"`},
		{"ranks=2 scheme=static(100) faults=", `unknown fault term ""`},
		{"ranks=2 scheme=static(100) faults=kill(1)", `unknown fault term "kill"`},
		{"ranks=2 scheme=static(100) faults=seed(1,2)", "seed takes 1 arguments"},
		{"ranks=2 scheme=static(100) faults=seed(1) ondemand", `write "ranks=2 scheme=static(100) ondemand faults=seed(1)"`},
	} {
		if _, err := ParseSpec(c.text); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("ParseSpec(%q) error = %v, want %q", c.text, err, c.want)
		}
	}
}

// TestSchemeRoundTripsThroughSpec: a scheme is what its spec prints. Over
// a grid of every kind and of each field at zero, at the edges Validate
// and chdev.CheckSlotBytes draw and at maxSpecNum, every Params those
// two accept reads back from its text form equal to itself — a field the
// grammar cannot print is one Validate rejects.
func TestSchemeRoundTripsThroughSpec(t *testing.T) {
	nums := []int{0, 1, 2, 3, chdev.HeaderSize, chdev.HeaderSize + 1, 64, 100, 2048, 2049, maxSpecNum}
	accepted := 0
	for k := core.KindHardware - 1; k <= core.KindRDMA+1; k++ {
		for _, prepost := range nums {
			for _, limit := range nums {
				for _, slot := range nums {
					p := core.Params{Kind: k, Prepost: prepost, Max: limit, SlotBytes: slot}
					if p.Validate() != nil || p.RingChannel() && chdev.CheckSlotBytes(slot) != nil {
						continue
					}
					accepted++
					text := Spec{Ranks: 2, Scheme: p}.String()
					s, err := ParseSpec(text)
					if err != nil || s.Scheme != p {
						t.Errorf("%+v prints as %q, which parses to %+v, %v", p, text, s.Scheme, err)
					}
				}
			}
		}
	}
	if accepted == 0 {
		t.Fatal("no scheme on the grid validated")
	}
}

// FuzzSpec holds the spec's two laws on any input: an accepted spec
// prints back to itself (parse then print is the identity), and an
// accepted spec of a small world builds without a panic — the class of
// bug a flag the channel device refuses used to be. Bigger worlds, and
// plans of more than 64 outages, are left out because they cost memory
// and time, not because they may panic.
func FuzzSpec(f *testing.F) {
	f.Fuzz(func(t *testing.T, text string) {
		s, err := ParseSpec(text)
		if err != nil {
			return
		}
		if got := s.String(); got != text {
			t.Fatalf("%q prints back as %q", text, got)
		}
		if s.Ranks <= 16 && s.Rails <= 4 && s.Endpoints <= 4 && s.Faults.OutageCount <= 64 {
			NewWorld(s.Ranks, s.Options())
		}
	})
}

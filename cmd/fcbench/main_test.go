package main

import (
	"strings"
	"testing"
)

// flagCase is one fcbench invocation: the -test, the flags given and
// their values. want is a substring of the error; "" means the
// combination is valid.
type flagCase struct {
	test string
	set  []string
	v    flagVals
	want string
}

// TestCheckFlags runs every flag combination fcbench rejects, plus the
// ones it must accept. A -spec the channel device would refuse is one of
// them: a usage error (exit 2), never a panic inside the run.
func TestCheckFlags(t *testing.T) {
	out := flagVals{metricsOut: "m.json"}
	cases := []flagCase{
		{"latency", nil, flagVals{}, ""},
		{"latency", []string{"size", "metrics-out"}, out, ""},
		{"latency", []string{"spec"}, flagVals{spec: "ranks=2 scheme=rdma(8,2048) eps=2"}, ""},
		{"bandwidth", []string{"window", "metrics-out", "metrics-format"}, flagVals{metricsOut: "m", metricsFormat: "perfetto"}, ""},
		{"bandwidth", []string{"spec"}, flagVals{spec: "ranks=2 scheme=dynamic(10,300)"}, ""},
		{"micro", []string{"size", "iters", "reps", "blocking", "json"}, flagVals{}, ""},
		{"scaling", []string{"quick", "json", "parallel"}, flagVals{parallel: 1}, ""},
		{"endpoints", []string{"quick"}, flagVals{}, ""},

		{"latency", []string{"window"}, flagVals{}, "-window applies to -test bandwidth"},
		{"latency", []string{"reps"}, flagVals{}, "-reps applies to -test bandwidth"},
		{"latency", []string{"blocking"}, flagVals{}, "-blocking applies to -test bandwidth"},
		{"latency", []string{"metrics-out"}, out, "pick one -size"},
		{"bandwidth", []string{"iters"}, flagVals{}, "-iters applies to -test latency"},
		{"bandwidth", []string{"metrics-out"}, out, "pick one -window"},
		{"latency", []string{"spec"}, flagVals{spec: "ranks=2 scheme=rdma(8,4096)"}, "ring slot size 4096 exceeds staging buffer size 2048"},
		{"latency", []string{"spec"}, flagVals{spec: "ranks=2 scheme=static(100,300)"}, "static takes 1 arguments"},
		{"bandwidth", []string{"spec"}, flagVals{spec: "ranks=2 scheme=static(0)"}, `"0" is not a number`},
		{"latency", []string{"spec"}, flagVals{spec: "ranks=4 scheme=static(100)"}, "-test latency measures two ranks"},
		{"bandwidth", []string{"spec"}, flagVals{spec: "ranks=2 scheme=static(100) eps=1"}, "not canonical"},
		{"micro", []string{"spec"}, flagVals{}, "-test micro sweeps all schemes at fixed pre-posts; drop -spec"},
		{"micro", []string{"window"}, flagVals{}, "-test micro sweeps every bandwidth window"},
		{"micro", []string{"metrics-out"}, out, "not supported with -test micro"},
		{"scaling", []string{"metrics-out"}, out, "not supported with -test scaling"},
		{"scaling", []string{"window"}, flagVals{}, "-window does not apply to -test scaling (fixed sweep; see internal/bench.ConnScaling)"},
		{"endpoints", []string{"metrics-out"}, out, "not supported with -test endpoints"},
		{"endpoints", []string{"spec"}, flagVals{}, "-spec does not apply to -test endpoints (fixed sweep; see internal/bench.EndpointContention)"},
		{"nosuch", nil, flagVals{}, `unknown -test "nosuch"`},
		{"latency", []string{"quick"}, flagVals{}, "-quick applies to -test scaling"},
		{"latency", []string{"parallel"}, flagVals{parallel: -1}, "-parallel must be >= 0"},
		{"latency", []string{"size", "metrics-out", "parallel"}, flagVals{metricsOut: "m", parallel: 1}, "drop -parallel"},
		{"latency", []string{"metrics-format"}, flagVals{metricsFormat: "csv"}, "-metrics-format requires -metrics-out"},
		{"latency", []string{"size", "metrics-out", "metrics-format"}, flagVals{metricsOut: "m", metricsFormat: "xml"}, `unknown -metrics-format "xml"`},
	}
	// Every flag a fixed sweep ignores is rejected by both sweeps.
	for _, test := range []string{"scaling", "endpoints"} {
		for _, f := range []string{"spec", "size", "window", "reps", "iters", "blocking"} {
			cases = append(cases, flagCase{test, []string{f}, flagVals{}, "-" + f + " does not apply to -test " + test})
		}
	}
	for _, c := range cases {
		set := map[string]bool{}
		for _, f := range c.set {
			set[f] = true
		}
		if c.v.metricsFormat == "" {
			c.v.metricsFormat = "json" // the flag's default
		}
		if c.v.spec == "" {
			c.v.spec = "ranks=2 scheme=static(100)" // the flag's default
		}
		_, err := checkFlags(c.test, set, c.v)
		switch {
		case c.want == "" && err != nil:
			t.Errorf("-test %s %v: rejected: %v", c.test, c.set, err)
		case c.want != "" && err == nil:
			t.Errorf("-test %s %v: accepted, want %q", c.test, c.set, c.want)
		case c.want != "" && !strings.Contains(err.Error(), c.want):
			t.Errorf("-test %s %v: %q, want %q", c.test, c.set, err, c.want)
		}
	}
}

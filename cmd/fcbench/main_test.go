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
// ones it must accept.
func TestCheckFlags(t *testing.T) {
	out := flagVals{metricsOut: "m.json"}
	cases := []flagCase{
		{"latency", nil, flagVals{}, ""},
		{"latency", []string{"size", "metrics-out"}, out, ""},
		{"bandwidth", []string{"window", "metrics-out", "metrics-format"}, flagVals{metricsOut: "m", metricsFormat: "perfetto"}, ""},
		{"micro", []string{"size", "iters", "reps", "blocking", "prepost", "dynmax", "json"}, flagVals{}, ""},
		{"scaling", []string{"quick", "json", "parallel"}, flagVals{parallel: 1}, ""},
		{"endpoints", []string{"quick"}, flagVals{}, ""},

		{"latency", []string{"window"}, flagVals{}, "-window applies to -test bandwidth"},
		{"latency", []string{"reps"}, flagVals{}, "-reps applies to -test bandwidth"},
		{"latency", []string{"blocking"}, flagVals{}, "-blocking applies to -test bandwidth"},
		{"latency", []string{"metrics-out"}, out, "pick one -size"},
		{"bandwidth", []string{"iters"}, flagVals{}, "-iters applies to -test latency"},
		{"bandwidth", []string{"metrics-out"}, out, "pick one -window"},
		{"micro", []string{"scheme"}, flagVals{}, "-test micro sweeps all schemes"},
		{"micro", []string{"window"}, flagVals{}, "-test micro sweeps every bandwidth window"},
		{"micro", []string{"slotbytes"}, flagVals{}, "fixed 2048-byte slots; drop -slotbytes"},
		{"micro", []string{"metrics-out"}, out, "not supported with -test micro"},
		{"micro", []string{"endpoints"}, flagVals{endpoints: 2}, "-endpoints applies to -test latency and bandwidth"},
		{"scaling", []string{"scheme"}, flagVals{}, "-test scaling sweeps all schemes"},
		{"scaling", []string{"metrics-out"}, out, "not supported with -test scaling"},
		{"scaling", []string{"window"}, flagVals{}, "-window does not apply to -test scaling (fixed sweep; see internal/bench.ConnScaling)"},
		{"endpoints", []string{"scheme"}, flagVals{}, "-test endpoints sweeps all schemes"},
		{"endpoints", []string{"metrics-out"}, out, "not supported with -test endpoints"},
		{"endpoints", []string{"endpoints"}, flagVals{endpoints: 2}, "-endpoints does not apply to -test endpoints (fixed sweep; see internal/bench.EndpointContention)"},
		{"nosuch", nil, flagVals{}, `unknown -test "nosuch"`},
		{"latency", []string{"quick"}, flagVals{}, "-quick applies to -test scaling"},
		{"latency", []string{"endpoints"}, flagVals{endpoints: -1}, "-endpoints must be >= 0"},
		{"latency", []string{"parallel"}, flagVals{parallel: -1}, "-parallel must be >= 0"},
		{"latency", []string{"size", "metrics-out", "parallel"}, flagVals{metricsOut: "m", parallel: 1}, "drop -parallel"},
		{"latency", []string{"metrics-format"}, flagVals{metricsFormat: "csv"}, "-metrics-format requires -metrics-out"},
		{"latency", []string{"pool-metrics"}, flagVals{poolMetrics: true}, "-pool-metrics requires -metrics-out"},
		{"latency", []string{"size", "metrics-out", "metrics-format"}, flagVals{metricsOut: "m", metricsFormat: "xml"}, `unknown -metrics-format "xml"`},
	}
	// Every flag a fixed sweep ignores is rejected by both sweeps.
	for _, test := range []string{"scaling", "endpoints"} {
		for _, f := range []string{"prepost", "dynmax", "slotbytes", "size", "window", "reps", "iters", "blocking", "endpoints"} {
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
		err := checkFlags(c.test, set, c.v)
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

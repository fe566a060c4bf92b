package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestSpecUsage: a -spec the channel device would refuse, one of the
// wrong shape and one written out of canonical form are usage errors
// (exit 2) before any world is built; a good one runs the kernel in that
// world and names it in the report.
func TestSpecUsage(t *testing.T) {
	for _, c := range []struct{ spec, want string }{
		{"ranks=8 scheme=rdma(8,4096)", "ring slot size 4096 exceeds staging buffer size 2048"},
		{"ranks=8 scheme=dynamic(1)", "dynamic takes 2 arguments"},
		{"ranks=8 scheme=static(100) pernode=2", "not canonical"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-spec", c.spec}, &stdout, &stderr); code != 2 {
			t.Errorf("-spec %q: exit %d, want 2", c.spec, code)
		}
		if stdout.Len() != 0 || !strings.Contains(stderr.String(), c.want) {
			t.Errorf("-spec %q: stdout %q, stderr %q; want only an error naming %q", c.spec, &stdout, &stderr, c.want)
		}
	}

	var stdout, stderr bytes.Buffer
	code := run([]string{"-app", "IS", "-class", "S", "-spec", "ranks=4 scheme=static(10)"}, &stdout, &stderr)
	if code != 0 || !strings.HasPrefix(stdout.String(), "IS class S, ranks=4 scheme=static(10)\n") {
		t.Errorf("exit %d, stdout:\n%s\nstderr:\n%s", code, &stdout, &stderr)
	}
}

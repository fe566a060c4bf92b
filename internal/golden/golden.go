// Package golden compares a test's output with a checked-in text file,
// one number or key per line, so a mismatch names the lines that moved.
// `make goldens` rewrites every such file.
package golden

import (
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"
)

// updateEnv, when set, makes Check rewrite the file instead of comparing.
const updateEnv = "IBFLOW_UPDATE_GOLDENS"

// Check fails t unless got equals the file at path byte for byte; when
// IBFLOW_UPDATE_GOLDENS is set it writes got to path instead.
func Check(t testing.TB, path string, got []byte) {
	t.Helper()
	if err := check(path, got); err != nil {
		t.Error(err)
	}
}

func check(path string, got []byte) error {
	if os.Getenv(updateEnv) != "" {
		return os.WriteFile(path, got, 0o644)
	}
	want, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("%w (run with %s=1 to write it)", err, updateEnv)
	}
	if string(want) == string(got) {
		return nil
	}
	return fmt.Errorf("%s differs (-want +got; `make goldens` re-pins):\n%s", path, diff(string(want), string(got)))
}

// diff lists the lines of want that got lacks ("-") and the lines of got
// that want lacks ("+"), each in its file's order and counted with
// multiplicity; when there are none, the two hold the same lines in a
// different order.
func diff(want, got string) string {
	lines := append(minus("-", want, got), minus("+", got, want)...)
	if len(lines) == 0 {
		return "the same lines in a different order"
	}
	return strings.Join(lines, "\n")
}

// minus returns each line of a that b does not match, one match per
// line, prefixed with sign.
func minus(sign, a, b string) []string {
	left := map[string]int{}
	for _, l := range strings.Split(b, "\n") {
		left[l]++
	}
	var out []string
	for _, l := range strings.Split(a, "\n") {
		if left[l] > 0 {
			left[l]--
		} else {
			out = append(out, sign+l)
		}
	}
	return out
}

// Fields appends one `cell pkg.Type.Field value` line for each non-zero
// field of the struct stats, in declaration order, so a zero counter
// writes nothing and one that moves names itself.
func Fields(b []byte, cell string, stats any) []byte {
	v := reflect.ValueOf(stats)
	for i := range v.NumField() {
		if f := v.Field(i); !f.IsZero() {
			b = fmt.Appendf(b, "%s %v.%s %d\n", cell, v.Type(), v.Type().Field(i).Name, f.Interface())
		}
	}
	return b
}

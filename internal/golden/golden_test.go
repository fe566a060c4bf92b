package golden

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeGolden puts want in a fresh file and returns its path.
func writeGolden(t *testing.T, want string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "x.golden")
	if err := os.WriteFile(path, []byte(want), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCheck(t *testing.T) {
	t.Setenv(updateEnv, "")
	const want = "a makespan_ns 10\na events 4\nb makespan_ns 12\n"
	path := writeGolden(t, want)
	for _, c := range []struct{ name, got, report string }{
		{"same", want, ""},
		{"one line", "a makespan_ns 10\na events 5\nb makespan_ns 12\n", "-a events 4\n+a events 5"},
		{"reorder", "a events 4\na makespan_ns 10\nb makespan_ns 12\n", "the same lines in a different order"},
		{"line added", want + "b events 2\n", "+b events 2"},
		{"repeat dropped", "x\nx\n", "-a makespan_ns 10\n-a events 4\n-b makespan_ns 12\n+x\n+x"},
	} {
		err := check(path, []byte(c.got))
		switch {
		case c.report == "" && err != nil:
			t.Errorf("%s: %v", c.name, err)
		case c.report != "" && (err == nil || !strings.HasSuffix(err.Error(), ":\n"+c.report)):
			t.Errorf("%s: reported %v, want a report ending\n%s", c.name, err, c.report)
		}
	}
	Check(t, path, []byte(want))
}

func TestCheckMissingFileNamesTheVariable(t *testing.T) {
	t.Setenv(updateEnv, "")
	err := check(filepath.Join(t.TempDir(), "none.golden"), []byte("a 1\n"))
	if err == nil || !strings.Contains(err.Error(), updateEnv+"=1") {
		t.Fatalf("missing file reported %v, want it to name %s", err, updateEnv)
	}
}

func TestCheckUpdateRewrites(t *testing.T) {
	t.Setenv(updateEnv, "1")
	path := writeGolden(t, "a 1\n")
	Check(t, path, []byte("a 2\n"))
	if b, err := os.ReadFile(path); err != nil || string(b) != "a 2\n" {
		t.Errorf("after update: %q, %v", b, err)
	}
}

func TestFields(t *testing.T) {
	type stats struct{ Sent, Zero, HWM int }
	const want = "c golden.stats.Sent 3\nc golden.stats.HWM 7\n"
	if got := string(Fields(nil, "c", stats{Sent: 3, HWM: 7})); got != want {
		t.Errorf("Fields wrote %q, want %q", got, want)
	}
}

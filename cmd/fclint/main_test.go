package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeTestModule lays out a miniature module named ibflow in a temp
// directory, with a sim package at the audited path (so the analyzers'
// engine and park detection engage) and one audited transport package
// carrying a known set of violations:
//
//   - a handler that parks through a helper  (simhotpath)
//   - a per-event closure scheduled from it  (hotalloc)
//   - a stale fclint:allow comment           (fclint)
func writeTestModule(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	write := func(rel, src string) {
		t.Helper()
		path := filepath.Join(dir, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module ibflow\n\ngo 1.22\n")
	write("internal/sim/sim.go", `package sim

type Time int64

type Handler interface{ OnEvent(arg uint64) }

type Engine struct{ pending int }

func (e *Engine) Now() Time { return 0 }

func (e *Engine) At(t Time, fn func()) { e.pending++; _ = fn }

func (e *Engine) After(d Time, fn func()) { e.pending++; _ = fn }

func (e *Engine) AtCall(t Time, h Handler, arg uint64) { e.pending++; _ = h; _ = arg }

func (e *Engine) AfterCall(d Time, h Handler, arg uint64) { e.pending++; _ = h; _ = arg }
`)
	// The coroutine yield is what the facts layer derives "Sleep parks"
	// from; like the real proc.go it needs no exemption of its own.
	write("internal/sim/proc.go", `package sim

type Proc struct {
	yield func(struct{}) bool
}

func (p *Proc) park() { p.yield(struct{}{}) }

func (p *Proc) Sleep(d Time) { _ = d; p.park() }
`)
	write("internal/ib/ib.go", `package ib

import "ibflow/internal/sim"

type pump struct {
	e *sim.Engine
	p *sim.Proc
}

func (h *pump) OnEvent(arg uint64) {
	h.wait()
	h.e.At(1, func() { _ = arg })
}

func (h *pump) wait() { h.p.Sleep(1) }

//fclint:allow simwallclock covered by virtual clock
func clean() {}
`)
	return dir
}

// runFclint invokes the driver's run() in dir and returns (exit code,
// stdout, stderr).
func runFclint(t *testing.T, dir string, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(dir, args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

func TestFindingsAndJSONStability(t *testing.T) {
	dir := writeTestModule(t)
	code1, out1, _ := runFclint(t, dir, "-json", "-parallel", "1", "./...")
	code4, out4, _ := runFclint(t, dir, "-json", "-parallel", "4", "./...")
	if code1 != 1 || code4 != 1 {
		t.Fatalf("exit codes = %d, %d, want 1 (module has known violations)", code1, code4)
	}
	if out1 != out4 {
		t.Errorf("-json output differs between -parallel 1 and -parallel 4:\n%s\nvs\n%s", out1, out4)
	}
	code, again, _ := runFclint(t, dir, "-json", "-parallel", "1", "./...")
	if code != 1 || again != out1 {
		t.Error("-json output is not byte-stable across identical runs")
	}

	var findings []finding
	if err := json.Unmarshal([]byte(out1), &findings); err != nil {
		t.Fatalf("-json output is not a JSON array: %v", err)
	}
	got := map[string]int{}
	for _, f := range findings {
		got[f.Analyzer]++
		if filepath.IsAbs(f.File) || strings.Contains(f.File, "\\") {
			t.Errorf("finding path %q is not module-relative with forward slashes", f.File)
		}
	}
	want := map[string]int{"simhotpath": 1, "hotalloc": 1, "fclint": 1}
	for a, n := range want {
		if got[a] != n {
			t.Errorf("findings from %s = %d, want %d (all: %v)", a, got[a], n, got)
		}
	}
	for _, f := range findings {
		switch f.Analyzer {
		case "simhotpath":
			if !strings.Contains(f.Message, "(*ib.pump).OnEvent") || !strings.Contains(f.Message, "yields its coroutine to the engine") {
				t.Errorf("simhotpath message = %q, want the handler and the park chain", f.Message)
			}
		case "fclint":
			if !strings.Contains(f.Message, "stale") {
				t.Errorf("fclint message = %q, want stale-allow diagnostic", f.Message)
			}
		}
	}
}

func TestFixDeletesStaleAllows(t *testing.T) {
	dir := writeTestModule(t)
	code, _, stderr := runFclint(t, dir, "-fix", "./...")
	if code != 1 {
		t.Fatalf("-fix run exit = %d, want 1 (real violations remain)\nstderr:\n%s", code, stderr)
	}
	if !strings.Contains(stderr, "deleted 1 stale") {
		t.Errorf("-fix should report the deletion, stderr:\n%s", stderr)
	}
	data, err := os.ReadFile(filepath.Join(dir, "internal/ib/ib.go"))
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), "fclint:allow") {
		t.Errorf("stale allow survived -fix:\n%s", data)
	}
	if !strings.Contains(string(data), "func clean() {}") {
		t.Errorf("-fix damaged neighboring code:\n%s", data)
	}
	code, stdout, _ := runFclint(t, dir, "./...")
	if strings.Contains(stdout, "stale") {
		t.Errorf("stale finding persists after -fix:\n%s", stdout)
	}
	_ = code
}

// Command fclint runs this repository's determinism, credit-accounting and
// hot-path-contract analyzers (see internal/analysis) over the module.
//
// Usage:
//
//	go run ./cmd/fclint [flags] [packages]
//
// It audits the simulation packages listed in analysis.AuditedPackages —
// test files included — with cross-package function facts computed
// bottom-up over the whole module, and exits nonzero if any unsuppressed,
// unbaselined finding remains. A finding is suppressed by a comment on its
// line (or the line above):
//
//	//fclint:allow <analyzer> <reason>
//
// The reason is mandatory; malformed suppressions are findings themselves,
// and so are stale ones — suppressions that no longer match any finding
// (-fix deletes them).
//
// Flags:
//
//	-json            emit findings as a JSON array on stdout (byte-stable:
//	                 sorted by file, line, column, analyzer, message, with
//	                 module-relative paths)
//	-baseline FILE   ratchet against FILE: findings recorded there are
//	                 reported but tolerated; only NEW findings fail
//	-write-baseline  rewrite the -baseline file from the current findings
//	-fix             delete stale fclint:allow comments in place
//	-parallel N      analyze packages with N workers (0 = GOMAXPROCS);
//	                 output is byte-identical for any worker count
//
// The baseline records one finding per line as
// "file<TAB>analyzer<TAB>message" — no line numbers, so it survives
// unrelated edits; analyzer messages are position-free by design.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"ibflow/internal/analysis"
	"ibflow/internal/runner"
)

func main() {
	os.Exit(run(".", os.Args[1:], os.Stdout, os.Stderr))
}

// finding is one diagnostic resolved to a module-relative position.
type finding struct {
	File      string `json:"file"`
	Line      int    `json:"line"`
	Col       int    `json:"col"`
	Analyzer  string `json:"analyzer"`
	Message   string `json:"message"`
	Baselined bool   `json:"baselined,omitempty"`
}

// key is the baseline identity of a finding: positions are deliberately
// excluded so the ratchet survives line drift from unrelated edits.
func (f finding) key() string {
	return f.File + "\t" + f.Analyzer + "\t" + f.Message
}

// run is the testable entry point: analyze the module rooted at dir and
// return the process exit code (0 clean, 1 findings, 2 operational error).
func run(dir string, args []string, stdout, stderr io.Writer) int {
	flags := flag.NewFlagSet("fclint", flag.ContinueOnError)
	flags.SetOutput(stderr)
	var (
		asJSON        = flags.Bool("json", false, "emit findings as a JSON array on stdout")
		baselinePath  = flags.String("baseline", "", "tolerate findings recorded in this file; only new ones fail")
		writeBaseline = flags.Bool("write-baseline", false, "rewrite the -baseline file from the current findings")
		fix           = flags.Bool("fix", false, "delete stale fclint:allow comments in place")
		parallel      = flags.Int("parallel", 0, "analyzer workers (0 = GOMAXPROCS)")
	)
	if err := flags.Parse(args); err != nil {
		return 2
	}
	patterns := flags.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	if *writeBaseline && *baselinePath == "" {
		fmt.Fprintln(stderr, "fclint: -write-baseline requires -baseline")
		return 2
	}

	mod, err := analysis.LoadModule(dir, patterns)
	if err != nil {
		fmt.Fprintln(stderr, "fclint:", err)
		return 2
	}
	facts := analysis.BuildFacts(mod)
	known := analysis.KnownNames()

	var audited []*analysis.LoadedPackage
	for _, pkg := range mod.Matched {
		if analysis.Audited(pkg.Path) {
			audited = append(audited, pkg)
		}
	}

	// Analyze packages in parallel. Each worker touches only its own
	// package's syntax and the read-only module facts; results come back
	// index-ordered, so output is byte-identical for any worker count.
	workers := *parallel
	if workers <= 0 {
		workers = runner.Default()
	}
	type pkgResult struct {
		findings []finding
		stale    []analysis.Allow
		typeErrs []string
		err      error
	}
	results := runner.Map(len(audited), workers, func(i int) pkgResult {
		pkg := audited[i]
		var res pkgResult
		for _, terr := range pkg.TypeErrs {
			res.typeErrs = append(res.typeErrs, fmt.Sprintf("%s: type error: %v", pkg.Path, terr))
		}
		allows, bad := analysis.CollectAllows(pkg.Fset, pkg.Files, known)
		// Collect every analyzer's in-scope findings first, then filter
		// suppressions once: an allow is stale only if NOTHING in the
		// whole suite matches it.
		diags := append([]analysis.Diagnostic{}, bad...)
		for _, a := range analysis.All {
			out, err := analysis.RunWithFacts(a, pkg, facts)
			if err != nil {
				res.err = err
				return res
			}
			diags = append(diags, out...)
		}
		kept, stale := analysis.FilterAllowedStale(pkg.Fset, diags, allows)
		res.stale = stale
		for _, d := range kept {
			p := pkg.Fset.Position(d.Pos)
			res.findings = append(res.findings, finding{
				File: relPath(mod.Dir, p.Filename), Line: p.Line, Col: p.Column,
				Analyzer: d.Analyzer, Message: d.Message,
			})
		}
		return res
	})

	var findings []finding
	var stale []analysis.Allow
	for _, res := range results {
		if res.err != nil {
			fmt.Fprintln(stderr, "fclint:", res.err)
			return 2
		}
		for _, msg := range res.typeErrs {
			fmt.Fprintln(stderr, "fclint:", msg)
		}
		findings = append(findings, res.findings...)
		stale = append(stale, res.stale...)
	}

	// Stale suppressions: with -fix, delete them in place; otherwise they
	// are findings like any other (an allow that suppresses nothing is an
	// audit-trail lie waiting to hide a future regression).
	if *fix && len(stale) > 0 {
		fixed, err := deleteAllows(stale)
		if err != nil {
			fmt.Fprintln(stderr, "fclint:", err)
			return 2
		}
		fmt.Fprintf(stderr, "fclint: deleted %d stale fclint:allow comment(s)\n", fixed)
	} else {
		for _, a := range stale {
			findings = append(findings, finding{
				File: relPath(mod.Dir, a.File), Line: a.Line, Col: 1,
				Analyzer: "fclint",
				Message:  fmt.Sprintf("fclint:allow %s suppresses nothing (stale) — delete it or run fclint -fix", a.Analyzer),
			})
		}
	}

	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})

	// Baseline ratchet: each baseline entry absorbs one matching finding
	// (multiset semantics — two identical offenses need two entries).
	var retired int
	if *baselinePath != "" && !*writeBaseline {
		base, err := readBaseline(filepath.Join(dir, *baselinePath))
		if err != nil {
			fmt.Fprintln(stderr, "fclint:", err)
			return 2
		}
		for i := range findings {
			if base[findings[i].key()] > 0 {
				base[findings[i].key()]--
				findings[i].Baselined = true
			}
		}
		for _, n := range base {
			retired += n
		}
	}

	if *writeBaseline {
		if err := writeBaselineFile(filepath.Join(dir, *baselinePath), findings); err != nil {
			fmt.Fprintln(stderr, "fclint:", err)
			return 2
		}
		fmt.Fprintf(stderr, "fclint: wrote %d finding(s) to %s\n", len(findings), *baselinePath)
		return 0
	}

	if *asJSON {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "\t")
		if findings == nil {
			findings = []finding{}
		}
		if err := enc.Encode(findings); err != nil {
			fmt.Fprintln(stderr, "fclint:", err)
			return 2
		}
	}

	var fresh, baselined int
	for _, f := range findings {
		if f.Baselined {
			baselined++
			continue
		}
		fresh++
		if !*asJSON {
			fmt.Fprintf(stdout, "%s:%d:%d: [%s] %s\n", f.File, f.Line, f.Col, f.Analyzer, f.Message)
		}
	}
	if retired > 0 {
		fmt.Fprintf(stderr, "fclint: %d baseline entr(ies) no longer occur — tighten the baseline with -write-baseline\n", retired)
	}
	if fresh > 0 {
		fmt.Fprintf(stderr, "fclint: %d new finding(s) in %d audited package(s) (%d baselined)\n",
			fresh, len(audited), baselined)
		return 1
	}
	if !*asJSON {
		fmt.Fprintf(stdout, "fclint: ok (%d audited packages, %d baselined finding(s))\n", len(audited), baselined)
	}
	return 0
}

// relPath renders file relative to the module root with forward slashes,
// so baselines and JSON output are machine-independent.
func relPath(modDir, file string) string {
	if rel, err := filepath.Rel(modDir, file); err == nil && !strings.HasPrefix(rel, "..") {
		return filepath.ToSlash(rel)
	}
	return filepath.ToSlash(file)
}

// readBaseline parses a baseline file into a multiset of finding keys.
// A missing file is an empty baseline, so bootstrapping is one
// -write-baseline away.
func readBaseline(path string) (map[string]int, error) {
	base := map[string]int{}
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return base, nil
		}
		return nil, fmt.Errorf("reading baseline: %w", err)
	}
	for i, line := range strings.Split(string(data), "\n") {
		line = strings.TrimRight(line, "\r")
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if strings.Count(line, "\t") != 2 {
			return nil, fmt.Errorf("baseline %s:%d: want file<TAB>analyzer<TAB>message, got %q", path, i+1, line)
		}
		base[line]++
	}
	return base, nil
}

// writeBaselineFile records the current findings, one key per line, in
// the findings' (already deterministic) sort order.
func writeBaselineFile(path string, findings []finding) error {
	var b strings.Builder
	b.WriteString("# fclint baseline: tolerated pre-existing findings, one per line as\n")
	b.WriteString("# file<TAB>analyzer<TAB>message. Regenerate with: go run ./cmd/fclint -baseline <file> -write-baseline ./...\n")
	keys := make([]string, 0, len(findings))
	for _, f := range findings {
		keys = append(keys, f.key())
	}
	sort.Strings(keys)
	for _, k := range keys {
		b.WriteString(k)
		b.WriteByte('\n')
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}

// deleteAllows removes each stale allow's comment from its source file: a
// comment alone on its line takes the whole line with it, a trailing
// comment is clipped off. Returns the number of comments deleted.
func deleteAllows(stale []analysis.Allow) (int, error) {
	byFile := map[string][]analysis.Allow{}
	for _, a := range stale {
		byFile[a.File] = append(byFile[a.File], a)
	}
	files := make([]string, 0, len(byFile))
	for f := range byFile {
		files = append(files, f)
	}
	sort.Strings(files)
	deleted := 0
	for _, file := range files {
		data, err := os.ReadFile(file)
		if err != nil {
			return deleted, fmt.Errorf("fixing %s: %w", file, err)
		}
		lines := strings.Split(string(data), "\n")
		drop := map[int]bool{}
		for _, a := range byFile[file] {
			i := a.Line - 1
			if i < 0 || i >= len(lines) {
				continue
			}
			at := strings.Index(lines[i], analysis.AllowPrefix)
			if at < 0 {
				continue
			}
			if strings.TrimSpace(lines[i][:at]) == "" {
				drop[i] = true
			} else {
				lines[i] = strings.TrimRight(lines[i][:at], " \t")
			}
			deleted++
		}
		var out []string
		for i, l := range lines {
			if !drop[i] {
				out = append(out, l)
			}
		}
		if err := os.WriteFile(file, []byte(strings.Join(out, "\n")), 0o644); err != nil {
			return deleted, fmt.Errorf("fixing %s: %w", file, err)
		}
	}
	return deleted, nil
}

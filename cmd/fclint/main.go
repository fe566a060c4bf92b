// Command fclint runs this repository's determinism, credit-accounting and
// hot-path-contract analyzers (see internal/analysis) over the module.
//
// Usage:
//
//	go run ./cmd/fclint [flags] [packages]
//
// It audits the simulation packages listed in analysis.AuditedPackages —
// test files included — with cross-package function facts computed
// bottom-up over the whole module, and exits nonzero if any unsuppressed
// finding remains. A finding is suppressed by a comment on its line (or
// the line above):
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
//	-fix             delete stale fclint:allow comments in place
//	-parallel N      analyze packages with N workers (0 = GOMAXPROCS);
//	                 output is byte-identical for any worker count
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
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// run is the testable entry point: analyze the module rooted at dir and
// return the process exit code (0 clean, 1 findings, 2 operational error).
func run(dir string, args []string, stdout, stderr io.Writer) int {
	flags := flag.NewFlagSet("fclint", flag.ContinueOnError)
	flags.SetOutput(stderr)
	var (
		asJSON   = flags.Bool("json", false, "emit findings as a JSON array on stdout")
		fix      = flags.Bool("fix", false, "delete stale fclint:allow comments in place")
		parallel = flags.Int("parallel", 0, "analyzer workers (0 = GOMAXPROCS)")
	)
	if err := flags.Parse(args); err != nil {
		return 2
	}
	patterns := flags.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
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
	} else {
		for _, f := range findings {
			fmt.Fprintf(stdout, "%s:%d:%d: [%s] %s\n", f.File, f.Line, f.Col, f.Analyzer, f.Message)
		}
	}
	if len(findings) > 0 {
		fmt.Fprintf(stderr, "fclint: %d finding(s) in %d audited package(s)\n", len(findings), len(audited))
		return 1
	}
	if !*asJSON {
		fmt.Fprintf(stdout, "fclint: ok (%d audited packages)\n", len(audited))
	}
	return 0
}

// relPath renders file relative to the module root with forward slashes,
// so JSON output is machine-independent.
func relPath(modDir, file string) string {
	if rel, err := filepath.Rel(modDir, file); err == nil && !strings.HasPrefix(rel, "..") {
		return filepath.ToSlash(rel)
	}
	return filepath.ToSlash(file)
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

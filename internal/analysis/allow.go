package analysis

import (
	"go/ast"
	"go/token"
	"strings"
)

// AllowPrefix begins a suppression comment:
//
//	//fclint:allow <analyzer> <reason>
//
// A suppression on a line (or on the line immediately above it) silences
// that analyzer's findings on the line. The reason is mandatory: a
// suppression without one is itself reported as a finding.
const AllowPrefix = "//fclint:allow"

// Allow is one parsed suppression comment.
type Allow struct {
	Analyzer string
	Reason   string
	File     string
	Line     int
	Pos      token.Pos
}

// CollectAllows parses every fclint:allow comment in files. Malformed
// suppressions — an unknown analyzer name or a missing reason — are
// returned as diagnostics, since a suppression that silently fails to
// apply (or applies without an audit trail) defeats the linter.
func CollectAllows(fset *token.FileSet, files []*ast.File, known map[string]bool) ([]Allow, []Diagnostic) {
	var allows []Allow
	var bad []Diagnostic
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, AllowPrefix) {
					continue
				}
				rest := strings.TrimPrefix(c.Text, AllowPrefix)
				if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
					continue // e.g. //fclint:allowother
				}
				fields := strings.Fields(rest)
				pos := fset.Position(c.Pos())
				switch {
				case len(fields) == 0:
					bad = append(bad, Diagnostic{Pos: c.Pos(), Analyzer: "fclint",
						Message: "fclint:allow needs an analyzer name and a reason"})
				case !known[fields[0]]:
					bad = append(bad, Diagnostic{Pos: c.Pos(), Analyzer: "fclint",
						Message: "fclint:allow names unknown analyzer " + fields[0]})
				case len(fields) < 2:
					bad = append(bad, Diagnostic{Pos: c.Pos(), Analyzer: "fclint",
						Message: "fclint:allow " + fields[0] + " needs a reason"})
				default:
					allows = append(allows, Allow{
						Analyzer: fields[0],
						Reason:   strings.Join(fields[1:], " "),
						File:     pos.Filename,
						Line:     pos.Line,
						Pos:      c.Pos(),
					})
				}
			}
		}
	}
	return allows, bad
}

// FilterAllowedStale drops diagnostics that a matching, well-formed
// suppression covers: same file, same analyzer, on the finding's line or
// the line directly above it. It also returns the allows that suppressed
// nothing. For that stale set to be meaningful, diags must contain every
// analyzer's findings for the files the allows came from (a suppression
// is only stale if nothing at all matched it).
func FilterAllowedStale(fset *token.FileSet, diags []Diagnostic, allows []Allow) ([]Diagnostic, []Allow) {
	kept, used := filterAllowed(fset, diags, allows)
	var stale []Allow
	for i, a := range allows {
		if !used[i] {
			stale = append(stale, a)
		}
	}
	return kept, stale
}

func filterAllowed(fset *token.FileSet, diags []Diagnostic, allows []Allow) ([]Diagnostic, []bool) {
	type key struct {
		file     string
		line     int
		analyzer string
	}
	covered := map[key]int{} // -> index into allows, first writer wins
	for i := len(allows) - 1; i >= 0; i-- {
		a := allows[i]
		covered[key{a.File, a.Line, a.Analyzer}] = i
		covered[key{a.File, a.Line + 1, a.Analyzer}] = i
	}
	used := make([]bool, len(allows))
	var kept []Diagnostic
	for _, d := range diags {
		p := fset.Position(d.Pos)
		if i, ok := covered[key{p.Filename, p.Line, d.Analyzer}]; ok {
			used[i] = true
			continue
		}
		kept = append(kept, d)
	}
	return kept, used
}

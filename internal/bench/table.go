package bench

import (
	"encoding/json"
	"fmt"
	"slices"
	"strings"
)

// Table is an experiment result: one row per sweep point, one column per
// scheme or metric. The leading columns, those without a print verb,
// hold a row's text labels; every column after them holds numbers, kept
// at full precision and rounded through the column's verb only when the
// table prints as text or CSV.
type Table struct {
	Title   string
	Columns []Column
	Rows    []Row
	Note    string
}

// Column heads one column. Verb is the fmt verb its numbers print
// through ("%.2f"); a label column has none.
type Column struct {
	Name, Verb string
}

// Row is one sweep point: a cell per label column, then a number per
// number column.
type Row struct {
	Labels []string
	Cells  []float64
}

// columns heads a table with one label column, then one number column
// per name, each printed through verb.
func columns(label, verb string, names ...string) []Column {
	cols := []Column{{Name: label}}
	for _, n := range names {
		cols = append(cols, Column{n, verb})
	}
	return cols
}

// AddRow appends a row with one label.
func (t *Table) AddRow(label string, cells ...float64) {
	t.Rows = append(t.Rows, Row{[]string{label}, cells})
}

// grid returns the table as printed: the column names, then each row's
// labels and its numbers through their columns' verbs.
func (t *Table) grid() [][]string {
	g := [][]string{make([]string, len(t.Columns))}
	for i, c := range t.Columns {
		g[0][i] = c.Name
	}
	for _, r := range t.Rows {
		row := append([]string(nil), r.Labels...)
		for i, v := range r.Cells {
			row = append(row, fmt.Sprintf(t.Columns[len(r.Labels)+i].Verb, v))
		}
		g = append(g, row)
	}
	return g
}

// String renders the table as aligned text.
func (t *Table) String() string {
	g := t.grid()
	dashes := make([]string, len(t.Columns))
	for _, r := range g {
		for i, c := range r {
			if len(c) > len(dashes[i]) {
				dashes[i] = strings.Repeat("-", len(c))
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", t.Title)
	for _, r := range slices.Insert(g, 1, dashes) {
		for i, c := range r {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", len(dashes[i]), c)
		}
		b.WriteByte('\n')
	}
	if t.Note != "" {
		fmt.Fprintf(&b, "note: %s\n", t.Note)
	}
	return b.String()
}

// CSV renders the table as comma-separated values (one header row).
func (t *Table) CSV() string {
	var b strings.Builder
	for _, r := range t.grid() {
		for i, c := range r {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(strings.ReplaceAll(strings.TrimSpace(c), ",", ";"))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// JSON renders the table as an indented JSON object (title, column
// names, rows, note) for machine consumers: a row is its labels, then
// its numbers at full precision. The output is byte-deterministic.
func (t *Table) JSON() string {
	v := struct {
		Title   string   `json:"title"`
		Columns []string `json:"columns"`
		Rows    [][]any  `json:"rows"`
		Note    string   `json:"note,omitempty"`
	}{Title: t.Title, Note: t.Note}
	for _, c := range t.Columns {
		v.Columns = append(v.Columns, c.Name)
	}
	for _, r := range t.Rows {
		row := make([]any, 0, len(r.Labels)+len(r.Cells))
		for _, l := range r.Labels {
			row = append(row, l)
		}
		for _, c := range r.Cells {
			row = append(row, c)
		}
		v.Rows = append(v.Rows, row)
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		panic(err) // finite numbers and strings: cannot fail
	}
	return string(b) + "\n"
}

package ibflow

import (
	"maps"
	"os"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"

	"ibflow/internal/chdev"
	"ibflow/internal/ib"
	"ibflow/internal/mpi"
)

// TestDesignOptionsTable holds DESIGN.md's table under "### Options" to
// the configuration structs it describes: every exported field of
// ib.Config, chdev.Config and mpi.Options (less the nested IB and Chan)
// is named in exactly one row, and every name in a row is such a field.
// A row may name several fields of one package, the first qualified:
// `ib.Topology`, `LeafRadix`, `Oversub`.
func TestDesignOptionsTable(t *testing.T) {
	structs := map[string]reflect.Type{
		"ib":    reflect.TypeOf(ib.Config{}),
		"chdev": reflect.TypeOf(chdev.Config{}),
		"mpi":   reflect.TypeOf(mpi.Options{}),
	}
	rows := map[string][]string{} // qualified field -> the rows naming it
	for pkg, st := range structs {
		for i := range st.NumField() {
			f := st.Field(i)
			if f.IsExported() && !(pkg == "mpi" && (f.Name == "IB" || f.Name == "Chan")) {
				rows[pkg+"."+f.Name] = nil
			}
		}
	}

	doc, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(doc), "\n### Options\n")
	if !ok {
		t.Fatal(`DESIGN.md has no "### Options" section`)
	}
	section, _, _ = strings.Cut(section, "\n#")
	name := regexp.MustCompile("`([^`]+)`")
	n := 0
	for _, line := range strings.Split(section, "\n") {
		if !strings.HasPrefix(line, "| `") {
			continue // prose, the header or the separator
		}
		n++
		cell, _, _ := strings.Cut(line[1:], "|")
		pkg := ""
		for _, m := range name.FindAllStringSubmatch(cell, -1) {
			field := m[1]
			if p, f, ok := strings.Cut(field, "."); ok {
				pkg, field = p, f
			}
			key := pkg + "." + field
			if _, known := rows[key]; !known {
				t.Errorf("stale row %q: %s is not an exported field of ib.Config, chdev.Config or mpi.Options", strings.TrimSpace(cell), key)
				continue
			}
			rows[key] = append(rows[key], strings.TrimSpace(cell))
		}
	}
	if n == 0 {
		t.Fatal(`no table rows under "### Options"`)
	}
	for _, key := range slices.Sorted(maps.Keys(rows)) {
		switch named := rows[key]; {
		case len(named) == 0:
			t.Errorf("missing row: no row names %s", key)
		case len(named) > 1:
			t.Errorf("%s is named in %d rows: %q", key, len(named), named)
		}
	}
}

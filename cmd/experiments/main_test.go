package main

import (
	"strings"
	"testing"
)

// TestSelectExperiments is the -only table: keys pick tables in print
// order whatever order they are given in, groups expand, and a key that
// names no table is a usage error that names it — never a silent subset.
func TestSelectExperiments(t *testing.T) {
	all := []string{"fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "table1", "table2"}
	for _, c := range []struct {
		only    string
		want    []string
		wantErr string
	}{
		{only: "", want: all},
		{only: " , ", want: all},
		{only: "fig9", want: []string{"fig9"}},
		{only: "table1,fig2", want: []string{"fig2", "table1"}},
		{only: "FIG2, Table1", want: []string{"fig2", "table1"}},
		{only: "nas", want: []string{"fig9", "fig10", "table1", "table2"}},
		{only: "micro,fig9", want: []string{"fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9"}},
		{only: "fig9,tabel1", wantErr: "tabel1"},
		{only: "fig9,ablations", wantErr: "ablations"},
		{only: "connscaling", wantErr: "connscaling"},
		{only: "zzz,aaa,fig2", wantErr: "aaa, zzz"},
	} {
		sel, err := selectExperiments(c.only)
		if c.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Errorf("-only %q: error %v, want one naming %q", c.only, err, c.wantErr)
			}
			continue
		}
		if err != nil {
			t.Errorf("-only %q: %v", c.only, err)
			continue
		}
		var got []string
		for _, e := range sel {
			got = append(got, e.keys[0])
		}
		if strings.Join(got, ",") != strings.Join(c.want, ",") {
			t.Errorf("-only %q selected %v, want %v", c.only, got, c.want)
		}
	}
}

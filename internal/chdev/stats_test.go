package chdev

import (
	"reflect"
	"strings"
	"testing"
)

// TestStatsAddCoversEveryField walks Stats by reflection, so a field added
// without a merge rule in Stats.Add fails here: a high-water mark
// (MaxPosted and the *HWM fields) takes the max, Rank is left alone, and
// every other field sums. Each field is set alone, in both orders, and no
// other field may move.
func TestStatsAddCoversEveryField(t *testing.T) {
	typ := reflect.TypeOf(Stats{})
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		for _, in := range [][2]int64{{2, 3}, {3, 2}} {
			var s, o Stats
			setStat(t, reflect.ValueOf(&s).Elem().Field(i), in[0])
			setStat(t, reflect.ValueOf(&o).Elem().Field(i), in[1])
			s.Add(o)
			want := in[0] + in[1]
			switch {
			case name == "Rank":
				want = in[0]
			case name == "MaxPosted" || strings.HasSuffix(name, "HWM"):
				want = max(in[0], in[1])
			}
			v := reflect.ValueOf(s)
			if got := statOf(v.Field(i)); got != want {
				t.Errorf("%s: %d Add %d = %d, want %d", name, in[0], in[1], got, want)
			}
			for j := 0; j < typ.NumField(); j++ {
				if got := statOf(v.Field(j)); j != i && got != 0 {
					t.Errorf("adding %s moved %s to %d", name, typ.Field(j).Name, got)
				}
			}
		}
	}
}

func setStat(t *testing.T, v reflect.Value, x int64) {
	switch {
	case v.CanInt():
		v.SetInt(x)
	case v.CanUint():
		v.SetUint(uint64(x))
	default:
		t.Fatalf("Stats field of kind %v: give it a merge rule in Stats.Add and a case here", v.Kind())
	}
}

func statOf(v reflect.Value) int64 {
	if v.CanInt() {
		return v.Int()
	}
	return int64(v.Uint())
}

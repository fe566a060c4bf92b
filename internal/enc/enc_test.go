package enc

import (
	"math"
	"testing"
	"testing/quick"
)

func TestF64RoundTrip(t *testing.T) {
	in := []float64{0, 1.5, -2.25, math.Pi, math.Inf(1), math.SmallestNonzeroFloat64}
	b := PutF64(make([]byte, 8*len(in)), in)
	if len(b) != 8*len(in) {
		t.Fatal("length changed")
	}
	got := make([]float64, len(b)/8)
	GetF64(b, got)
	for i := range in {
		if got[i] != in[i] {
			t.Errorf("slot %d: %v != %v", i, got[i], in[i])
		}
	}
}

func TestI64RoundTrip(t *testing.T) {
	in := []int64{0, -1, math.MaxInt64, math.MinInt64, 42}
	got := I64s(PutI64(make([]byte, 8*len(in)), in))
	for i := range in {
		if got[i] != in[i] {
			t.Errorf("slot %d: %v != %v", i, got[i], in[i])
		}
	}
}

func TestI32RoundTrip(t *testing.T) {
	in := []int32{0, -7, math.MaxInt32, math.MinInt32}
	got := I32s(PutI32(make([]byte, 4*len(in)), in))
	for i := range in {
		if got[i] != in[i] {
			t.Errorf("slot %d: %v != %v", i, got[i], in[i])
		}
	}
}

func TestInPlaceVariants(t *testing.T) {
	v := []float64{1, 2, 3}
	b := make([]byte, 24)
	PutF64(b, v)
	out := make([]float64, 3)
	GetF64(b, out)
	for i := range v {
		if out[i] != v[i] {
			t.Fatal("PutF64/GetF64 mismatch")
		}
	}
	iv := []int64{-5, 6}
	ib := make([]byte, 16)
	PutI64(ib, iv)
	iout := make([]int64, 2)
	GetI64(ib, iout)
	if iout[0] != -5 || iout[1] != 6 {
		t.Fatal("PutI64/GetI64 mismatch")
	}
}

func TestPropertyRoundTrips(t *testing.T) {
	if err := quick.Check(func(v []int64) bool {
		got := I64s(PutI64(make([]byte, 8*len(v)), v))
		for i := range v {
			if got[i] != v[i] {
				return false
			}
		}
		return true
	}, nil); err != nil {
		t.Error(err)
	}
	if err := quick.Check(func(v []float64) bool {
		got := make([]float64, len(v))
		GetF64(PutF64(make([]byte, 8*len(v)), v), got)
		for i := range v {
			// NaN encodes fine but does not compare equal.
			if got[i] != v[i] && !(math.IsNaN(got[i]) && math.IsNaN(v[i])) {
				return false
			}
		}
		return true
	}, nil); err != nil {
		t.Error(err)
	}
}

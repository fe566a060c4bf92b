// Package enc converts between numeric slices and the byte payloads the
// MPI layer moves. All encodings are little-endian and length-preserving,
// so a round trip is the identity.
package enc

import (
	"encoding/binary"
	"math"
)

// PutF64 encodes v into b, which must hold 8*len(v) bytes, and returns b.
func PutF64(b []byte, v []float64) []byte {
	for i, x := range v {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(x))
	}
	return b
}

// GetF64 decodes b into v, which must hold len(b)/8 values.
func GetF64(b []byte, v []float64) {
	for i := range v {
		v[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
}

// PutI64 encodes v into b, which must hold 8*len(v) bytes, and returns b.
func PutI64(b []byte, v []int64) []byte {
	for i, x := range v {
		binary.LittleEndian.PutUint64(b[8*i:], uint64(x))
	}
	return b
}

// I64s decodes b (length a multiple of 8) into a fresh int64 slice.
func I64s(b []byte) []int64 {
	v := make([]int64, len(b)/8)
	GetI64(b, v)
	return v
}

// GetI64 decodes b into v, which must hold len(b)/8 values.
func GetI64(b []byte, v []int64) {
	for i := range v {
		v[i] = int64(binary.LittleEndian.Uint64(b[8*i:]))
	}
}

// PutI32 encodes v into b, which must hold 4*len(v) bytes, and returns b.
func PutI32(b []byte, v []int32) []byte {
	for i, x := range v {
		binary.LittleEndian.PutUint32(b[4*i:], uint32(x))
	}
	return b
}

// I32s decodes b (length a multiple of 4) into a fresh int32 slice.
func I32s(b []byte) []int32 {
	v := make([]int32, len(b)/4)
	for i := range v {
		v[i] = int32(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return v
}

package coll

import (
	"encoding/binary"
	"math"
)

// SumF64 element-wise adds little-endian float64 payloads.
func SumF64(dst, src []byte) {
	for i := 0; i+8 <= len(dst); i += 8 {
		a := math.Float64frombits(binary.LittleEndian.Uint64(dst[i:]))
		b := math.Float64frombits(binary.LittleEndian.Uint64(src[i:]))
		binary.LittleEndian.PutUint64(dst[i:], math.Float64bits(a+b))
	}
}

// SumI64 element-wise adds little-endian int64 payloads.
func SumI64(dst, src []byte) {
	for i := 0; i+8 <= len(dst); i += 8 {
		a := int64(binary.LittleEndian.Uint64(dst[i:]))
		b := int64(binary.LittleEndian.Uint64(src[i:]))
		binary.LittleEndian.PutUint64(dst[i:], uint64(a+b))
	}
}

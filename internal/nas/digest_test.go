package nas

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"ibflow/internal/core"
	"ibflow/internal/golden"
	"ibflow/internal/mpi"
)

// digestGolden holds one line per (class, kernel, rank): the FNV-64a hash
// of that rank's final field and verification scalars.
const digestGolden = "testdata/digests.golden"

// digestSchemes are the five schemes at the pre-post-1 stress setting of
// Figure 10.
func digestSchemes() []core.Params {
	return []core.Params{
		core.Hardware(1), core.Static(1), core.Dynamic(1, 100),
		core.Shared(16, 96), core.RDMA(8, 1024),
	}
}

// kernelDigests runs one kernel and returns each rank's digest: the
// lengths and IEEE-754 bits of the field and the scalars the kernel hands
// to observe.
func kernelDigests(t *testing.T, name string, class Class, n int, fc core.Params) []uint64 {
	t.Helper()
	digests := make([]uint64, n)
	seen := make([]bool, n)
	observe = func(c *mpi.Comm, field []float64, scalars ...float64) {
		h := fnv.New64a()
		var b [8]byte
		for _, vs := range [][]float64{field, scalars} {
			binary.LittleEndian.PutUint64(b[:], uint64(len(vs)))
			h.Write(b[:])
			for _, v := range vs {
				binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
				h.Write(b[:])
			}
		}
		digests[c.Rank()] = h.Sum64()
		seen[c.Rank()] = true
	}
	defer func() { observe = nil }()
	runApp(t, name, class, n, fc)
	for r, ok := range seen {
		if !ok {
			t.Fatalf("%s class %v: rank %d never reached observe", name, class, r)
		}
	}
	return digests
}

// TestKernelDigests pins every kernel's numerics bit for bit. Class S on
// 4 ranks runs under all five schemes — flow control must never change a
// bit of any rank's result — and class W at the paper's geometry (8 ranks,
// 16 for BT/SP) under the static scheme. Each rank's digest is one line of
// testdata/digests.golden; `make goldens` re-pins it, only when a kernel's
// arithmetic is meant to change.
//
// The goldens are amd64 results: Go fuses a*b+c into one FMA on arm64,
// ppc64 and s390x, which rounds differently.
func TestKernelDigests(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("digests are pinned on amd64; %s may fuse multiply-adds", runtime.GOARCH)
	}
	got := []byte("# class kernel rank  FNV-64a of the rank's final field and verification scalars\n")
	record := func(class Class, name string, d []uint64) {
		for r, v := range d {
			got = fmt.Appendf(got, "%v %s r%d %016x\n", class, name, r, v)
		}
	}
	for _, app := range Apps() {
		var first []uint64
		for _, fc := range digestSchemes() {
			d := kernelDigests(t, app.Name, ClassS, 4, fc)
			if first == nil {
				first = d
				continue
			}
			for r := range d {
				if d[r] != first[r] {
					t.Errorf("%s class S rank %d: %v digest %016x, %v %016x",
						app.Name, r, fc.Kind, d[r], digestSchemes()[0].Kind, first[r])
				}
			}
		}
		record(ClassS, app.Name, first)
	}
	for _, app := range Apps() {
		n := 8
		if app.Name == "BT" || app.Name == "SP" {
			n = 16
		}
		record(ClassW, app.Name, kernelDigests(t, app.Name, ClassW, n, core.Static(100)))
	}
	golden.Check(t, digestGolden, got)
}

// Package nas implements communication-faithful miniatures of the NAS
// Parallel Benchmarks the paper evaluates (IS, FT, LU, CG, MG, BT, SP).
//
// Each kernel reproduces the communication structure of its NPB original —
// the message sizes, the burstiness, and the symmetry (or not) of the
// pattern, which is what the flow control schemes react to:
//
//   - IS: bucket sort; all-to-all-v key exchange plus histogram allreduce.
//   - FT: 3-D FFT; large transpose all-to-alls (rendezvous traffic).
//   - LU: SSOR with 2-D pipelined wavefronts; floods of small messages
//     down the pipeline and a strongly asymmetric pattern (the explicit
//     credit message generator of Table 1, and the 63-buffer consumer of
//     Table 2).
//   - CG: conjugate gradient; halo exchanges plus latency-bound dot
//     product allreduces.
//   - MG: multigrid V-cycles; halo exchanges that shrink with every
//     level, down to very small messages.
//   - BT/SP: ADI sweeps on a square process grid with pipelined forward
//     elimination and back substitution in each direction.
//
// Real (small-scale) numerics run inside each kernel so results can be
// verified; the dominant computation is charged to the virtual clock with
// a calibrated cost model so that communication/computation ratios stay in
// the NPB Class A ballpark. See DESIGN.md for the substitution argument.
package nas

import (
	"fmt"

	"ibflow/internal/coll"
	"ibflow/internal/enc"
	"ibflow/internal/mpi"
	"ibflow/internal/sim"
)

// Class scales the problem size, loosely mirroring NPB classes. Class S is
// for unit tests, W for quick sweeps, A for the paper's experiments.
type Class int

const (
	// ClassS is a tiny problem for tests.
	ClassS Class = iota
	// ClassW is a small problem for quick experiments.
	ClassW
	// ClassA mirrors the paper's evaluation scale.
	ClassA
)

func (c Class) String() string {
	switch c {
	case ClassS:
		return "S"
	case ClassW:
		return "W"
	case ClassA:
		return "A"
	}
	return fmt.Sprintf("Class(%d)", int(c))
}

// ParseClass converts "S"/"W"/"A" to a Class.
func ParseClass(s string) (Class, error) {
	switch s {
	case "S", "s":
		return ClassS, nil
	case "W", "w":
		return ClassW, nil
	case "A", "a":
		return ClassA, nil
	}
	return 0, fmt.Errorf("nas: unknown class %q", s)
}

// flopNS is the virtual cost of one floating-point operation on the
// paper's 2.4 GHz Xeon nodes (sustained, memory-bound NPB code: well below
// peak).
const flopNS = 1.1

// chargeFlops charges n floating-point operations to the virtual clock.
func chargeFlops(c *mpi.Comm, n int) {
	if n > 0 {
		c.Compute(sim.Time(float64(n) * flopNS))
	}
}

// allreduceSum returns v summed over every rank of c, reduced in an
// 8-byte buffer from the rank's allocator.
func allreduceSum(c *mpi.Comm, v float64) float64 {
	sum := [1]float64{v}
	buf := enc.PutF64(c.AllocMem(8), sum[:])
	coll.Allreduce(c, buf, coll.SumF64)
	enc.GetF64(buf, sum[:])
	c.FreeMem(buf)
	return sum[0]
}

// sendF64 sends x to rank to, packed into a buffer from the rank's
// allocator that it frees once the send has completed.
func sendF64(c *mpi.Comm, to, tag int, x []float64) {
	buf := enc.PutF64(c.AllocMem(8*len(x)), x)
	c.Send(to, tag, buf)
	c.FreeMem(buf)
}

// observe, when set, is handed each rank's final field and verification
// scalars as its kernel finishes. Only the kernel-digest test sets it.
var observe func(c *mpi.Comm, field []float64, scalars ...float64)

// App is one benchmark kernel.
type App struct {
	Name string
	// ProcsOK validates a process count (LU/CG/MG/FT need powers of
	// two; BT/SP need perfect squares, as in the paper).
	ProcsOK func(n int) bool
	// Run executes the kernel and returns nil if it verified.
	Run func(c *mpi.Comm, class Class) error
}

// Apps lists the kernels in the paper's order (Figure 9 / Tables 1-2).
func Apps() []App {
	return []App{
		{Name: "IS", ProcsOK: powerOfTwo, Run: RunIS},
		{Name: "FT", ProcsOK: powerOfTwo, Run: RunFT},
		{Name: "LU", ProcsOK: powerOfTwo, Run: RunLU},
		{Name: "CG", ProcsOK: powerOfTwo, Run: RunCG},
		{Name: "MG", ProcsOK: powerOfTwo, Run: RunMG},
		{Name: "BT", ProcsOK: square, Run: RunBT},
		{Name: "SP", ProcsOK: square, Run: RunSP},
	}
}

// Get returns the kernel named name.
func Get(name string) (App, error) {
	for _, a := range Apps() {
		if a.Name == name {
			return a, nil
		}
	}
	return App{}, fmt.Errorf("nas: unknown app %q", name)
}

func powerOfTwo(n int) bool { return n > 0 && n&(n-1) == 0 }

func square(n int) bool {
	r := int(isqrt(uint64(n)))
	return r*r == n
}

func isqrt(n uint64) uint64 {
	if n == 0 {
		return 0
	}
	x := n
	y := (x + 1) / 2
	for y < x {
		x = y
		y = (x + n/x) / 2
	}
	return x
}

// grid2 factors p into the most square px*py with px >= py (LU, BT, SP,
// CG use 2-D process grids).
func grid2(p int) (px, py int) {
	py = int(isqrt(uint64(p)))
	for p%py != 0 {
		py--
	}
	return p / py, py
}

// prand is the NPB-style linear congruential generator (a = 5^13, modulo
// 2^46), used so key sequences are reproducible across schemes and runs.
type prand struct{ seed uint64 }

const (
	prandA   = 1220703125 // 5^13
	prandMod = 1 << 46
)

func newPrand(seed uint64) *prand {
	return &prand{seed: seed % prandMod}
}

func (r *prand) next() uint64 {
	r.seed = (r.seed * prandA) % prandMod
	return r.seed
}

// float64n returns a pseudo-random value in [0, 1).
func (r *prand) float64n() float64 {
	return float64(r.next()) / float64(uint64(prandMod))
}

// intn returns a pseudo-random value in [0, n).
func (r *prand) intn(n int) int {
	return int(r.next() % uint64(n))
}

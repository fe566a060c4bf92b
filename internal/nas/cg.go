package nas

import (
	"fmt"
	"math"

	"ibflow/internal/enc"
	"ibflow/internal/mpi"
)

// cgParams holds the conjugate gradient problem scale.
type cgParams struct {
	n     int // grid side; the matrix is the shifted 2-D Laplacian on n*n
	outer int
	inner int
}

func cgParamsFor(class Class) cgParams {
	switch class {
	case ClassS:
		return cgParams{n: 32, outer: 2, inner: 8}
	case ClassW:
		return cgParams{n: 128, outer: 3, inner: 15}
	default: // ClassA (real class A: n=14000 random sparse, 15x25)
		return cgParams{n: 256, outer: 5, inner: 25}
	}
}

// cgShift is the diagonal shift that keeps the system well-conditioned.
const cgShift = 0.5

// RunCG is the conjugate gradient kernel: repeated CG solves against an
// SPD matrix (shifted 2-D Laplacian) row-partitioned across ranks. Each
// matvec needs one halo row from each neighbour (≈2 KB eager messages at
// class A) and each CG step performs two tiny latency-bound allreduce dot
// products — the symmetric, gentle pattern that needs only ~3 pre-posted
// buffers in the paper's Table 2.
func RunCG(c *mpi.Comm, class Class) error {
	p := cgParamsFor(class)
	nprocs, me := c.Size(), c.Rank()
	n := p.n
	if n%nprocs != 0 {
		return fmt.Errorf("CG: %d rows not divisible over %d ranks", n, nprocs)
	}
	rl := n / nprocs // local rows

	up, down := me-1, me+1

	// Halo rows live at x[-1] and x[rl]; flatten with 2 extra rows.
	halo := func(x []float64) {
		rowBytes := c.AllocMem(8 * n)
		if me%2 == 0 {
			if down < nprocs {
				sendF64(c, down, 10, x[(rl)*n:(rl+1)*n])
				c.Recv(down, 11, rowBytes)
				enc.GetF64(rowBytes, x[(rl+1)*n:(rl+2)*n])
			}
			if up >= 0 {
				sendF64(c, up, 12, x[n:2*n])
				c.Recv(up, 13, rowBytes)
				enc.GetF64(rowBytes, x[0:n])
			}
		} else {
			if up >= 0 {
				c.Recv(up, 10, rowBytes)
				enc.GetF64(rowBytes, x[0:n])
				sendF64(c, up, 11, x[n:2*n])
			}
			if down < nprocs {
				c.Recv(down, 12, rowBytes)
				enc.GetF64(rowBytes, x[(rl+1)*n:(rl+2)*n])
				sendF64(c, down, 13, x[rl*n:(rl+1)*n])
			}
		}
		c.FreeMem(rowBytes)
	}

	// zero stands in for the rows beyond the global boundary: subtracting
	// +0 leaves every value, -0 included, as it was.
	zero := make([]float64, n)

	// matvec computes y = A x for the local rows; x and y have halo
	// padding (row 0 and row rl+1 are ghosts).
	matvec := func(y, x []float64) {
		halo(x)
		for i := 1; i <= rl; i++ {
			gi := (me*rl + i - 1) // global row index of this grid row
			north, south := x[(i-1)*n:i*n], x[(i+1)*n:(i+2)*n]
			if gi == 0 {
				north = zero
			}
			if gi == n-1 {
				south = zero
			}
			laplaceRow(y[i*n:(i+1)*n], x[i*n:(i+1)*n], north, south)
		}
		chargeFlops(c, 10*rl*n)
	}

	dot := func(a, b []float64) float64 {
		s := 0.0
		for i := n; i < (rl+1)*n; i++ {
			s += a[i] * b[i]
		}
		chargeFlops(c, 2*rl*n)
		return allreduceSum(c, s)
	}

	size := (rl + 2) * n
	x := make([]float64, size)
	r := make([]float64, size)
	pv := make([]float64, size)
	ap := make([]float64, size)
	b := make([]float64, size)
	rng := newPrand(uint64(77 + me*13))
	for i := n; i < (rl+1)*n; i++ {
		b[i] = rng.float64n()
	}

	var finalRes, firstRes float64
	for out := 0; out < p.outer; out++ {
		// Restart from x = 0 each outer iteration, as NPB CG does.
		clear(x)
		copy(r, b)
		copy(pv, r)
		rr := dot(r, r)
		res0 := math.Sqrt(rr)
		if out == 0 {
			firstRes = res0
		}
		for it := 0; it < p.inner; it++ {
			matvec(ap, pv)
			alpha := rr / dot(pv, ap)
			for i := n; i < (rl+1)*n; i++ {
				x[i] += alpha * pv[i]
				r[i] -= alpha * ap[i]
			}
			chargeFlops(c, 4*rl*n)
			rr2 := dot(r, r)
			beta := rr2 / rr
			rr = rr2
			for i := n; i < (rl+1)*n; i++ {
				pv[i] = r[i] + beta*pv[i]
			}
			chargeFlops(c, 2*rl*n)
		}
		finalRes = math.Sqrt(rr)
		if math.IsNaN(finalRes) || finalRes > res0 {
			return fmt.Errorf("CG: diverged: %g -> %g", res0, finalRes)
		}
	}
	if observe != nil {
		observe(c, x, firstRes, finalRes)
	}
	if finalRes > firstRes*0.05 {
		return fmt.Errorf("CG: weak convergence: %g -> %g", firstRes, finalRes)
	}
	return nil
}

// laplaceRow computes one row of y = (4+shift)x - (west + east + north +
// south), subtracting the neighbours in that order; the first and last
// columns have no west and east neighbour.
func laplaceRow(y, x, north, south []float64) {
	n := len(x)
	y, north, south = y[:n], north[:n], south[:n]
	y[0] = (4+cgShift)*x[0] - x[1] - north[0] - south[0]
	for j := 1; j < n-1; j++ {
		y[j] = (4+cgShift)*x[j] - x[j-1] - x[j+1] - north[j] - south[j]
	}
	y[n-1] = (4+cgShift)*x[n-1] - x[n-2] - north[n-1] - south[n-1]
}

package nas

import (
	"fmt"
	"math"

	"ibflow/internal/enc"
	"ibflow/internal/mpi"
)

// mgParams holds the multigrid problem scale.
type mgParams struct {
	n      int // fine grid side (power of two)
	cycles int
}

func mgParamsFor(class Class) mgParams {
	switch class {
	case ClassS:
		return mgParams{n: 32, cycles: 2}
	case ClassW:
		return mgParams{n: 128, cycles: 3}
	default: // ClassA (real class A is 256^3)
		return mgParams{n: 256, cycles: 4}
	}
}

// neighbourSums writes each cell's 0.0 + west + east + north + south,
// added in that order, into sum; the first and last columns have no west
// and east neighbour. A +0 row for a missing north or south leaves the
// sums as they were: a sum seeded with +0 is never -0.
func neighbourSums(sum, x, north, south []float64) {
	n := len(x)
	sum, north, south = sum[:n], north[:n], south[:n]
	sum[0] = 0.0 + x[1] + north[0] + south[0]
	for j := 1; j < n-1; j++ {
		sum[j] = 0.0 + x[j-1] + x[j+1] + north[j] + south[j]
	}
	sum[n-1] = 0.0 + x[n-2] + north[n-1] + south[n-1]
}

// mgLevel is one grid level of the V-cycle, row-partitioned across ranks.
type mgLevel struct {
	n  int       // global side
	rl int       // local rows (without ghosts)
	u  []float64 // solution, (rl+2)*n with ghost rows
	f  []float64 // right-hand side
	r  []float64 // residual scratch
}

// RunMG is the multigrid kernel: V-cycles on a 2-D Poisson problem. Every
// smoothing step exchanges one halo row with each neighbour; the rows
// shrink with each coarsening level (256 -> 128 -> ...), so the coarse
// levels generate floods of very small messages — the reason MG, like LU,
// suffers under the hardware scheme at pre-post 1 in Figure 10.
func RunMG(c *mpi.Comm, class Class) error {
	p := mgParamsFor(class)
	nprocs, me := c.Size(), c.Rank()
	n := p.n
	if n%nprocs != 0 {
		return fmt.Errorf("MG: %d rows not divisible over %d ranks", n, nprocs)
	}

	// Build levels while every rank keeps at least 2 rows.
	var levels []*mgLevel
	for side := n; side%nprocs == 0 && side/nprocs >= 2 && side >= 4; side /= 2 {
		rl := side / nprocs
		levels = append(levels, &mgLevel{
			n:  side,
			rl: rl,
			u:  make([]float64, (rl+2)*side),
			f:  make([]float64, (rl+2)*side),
			r:  make([]float64, (rl+2)*side),
		})
	}
	if len(levels) < 2 {
		return fmt.Errorf("MG: grid %d too small for %d ranks", n, nprocs)
	}

	fine := levels[0]
	rng := newPrand(uint64(5 + 11*me))
	for i := fine.n; i < (fine.rl+1)*fine.n; i++ {
		fine.f[i] = rng.float64n() - 0.5
	}

	up, down := me-1, me+1
	halo := func(l *mgLevel, x []float64) {
		rowBytes := c.AllocMem(8 * l.n)
		if me%2 == 0 {
			if down < nprocs {
				sendF64(c, down, 20, x[l.rl*l.n:(l.rl+1)*l.n])
				c.Recv(down, 21, rowBytes)
				enc.GetF64(rowBytes, x[(l.rl+1)*l.n:(l.rl+2)*l.n])
			}
			if up >= 0 {
				sendF64(c, up, 22, x[l.n:2*l.n])
				c.Recv(up, 23, rowBytes)
				enc.GetF64(rowBytes, x[0:l.n])
			}
		} else {
			if up >= 0 {
				c.Recv(up, 20, rowBytes)
				enc.GetF64(rowBytes, x[0:l.n])
				sendF64(c, up, 21, x[l.n:2*l.n])
			}
			if down < nprocs {
				c.Recv(down, 22, rowBytes)
				enc.GetF64(rowBytes, x[(l.rl+1)*l.n:(l.rl+2)*l.n])
				sendF64(c, down, 23, x[l.rl*l.n:(l.rl+1)*l.n])
			}
		}
		c.FreeMem(rowBytes)
	}

	// zero stands in for the rows beyond the global boundary; sum holds
	// one row's neighbour sums.
	zero := make([]float64, n)
	sum := make([]float64, n)
	// rowSums fills sum for local row i of level l's solution.
	rowSums := func(l *mgLevel, i int) {
		gi := me*l.rl + i - 1
		north, south := l.u[(i-1)*l.n:i*l.n], l.u[(i+1)*l.n:(i+2)*l.n]
		if gi == 0 {
			north = zero
		}
		if gi == l.n-1 {
			south = zero
		}
		neighbourSums(sum[:l.n], l.u[i*l.n:(i+1)*l.n], north, south)
	}

	// Damped Jacobi smoother.
	smooth := func(l *mgLevel, sweeps int) {
		const w = 0.8
		for s := 0; s < sweeps; s++ {
			halo(l, l.u)
			for i := 1; i <= l.rl; i++ {
				rowSums(l, i)
				u, f, r := l.u[i*l.n:(i+1)*l.n], l.f[i*l.n:(i+1)*l.n], l.r[i*l.n:(i+1)*l.n]
				for j, nb := range sum[:len(u)] {
					r[j] = (1-w)*u[j] + w*(nb+f[j])/4
				}
			}
			copy(l.u[l.n:(l.rl+1)*l.n], l.r[l.n:(l.rl+1)*l.n])
			chargeFlops(c, 9*l.rl*l.n)
		}
	}

	residual := func(l *mgLevel) {
		halo(l, l.u)
		for i := 1; i <= l.rl; i++ {
			rowSums(l, i)
			u, f, r := l.u[i*l.n:(i+1)*l.n], l.f[i*l.n:(i+1)*l.n], l.r[i*l.n:(i+1)*l.n]
			for j, nb := range sum[:len(u)] {
				r[j] = f[j] - (4*u[j] - nb)
			}
		}
		chargeFlops(c, 8*l.rl*l.n)
	}

	resNorm := func(l *mgLevel) float64 {
		residual(l)
		s := 0.0
		for _, v := range l.r[l.n : (l.rl+1)*l.n] {
			s += v * v
		}
		chargeFlops(c, 2*l.rl*l.n)
		return math.Sqrt(allreduceSum(c, s))
	}

	// restrict moves the residual of level l to the RHS of level l+1
	// (injection of even rows/cols; rows stay aligned because rl is even).
	restrict := func(fineL, coarse *mgLevel) {
		residual(fineL)
		for i := 1; i <= coarse.rl; i++ {
			fi := 2*i - 1
			cf, fr := coarse.f[i*coarse.n:(i+1)*coarse.n], fineL.r[fi*fineL.n:]
			for j := range cf {
				cf[j] = fr[2*j]
			}
			chargeFlops(c, coarse.n)
		}
		clear(coarse.u)
	}

	// prolong adds the coarse correction back into the fine solution.
	prolong := func(coarse, fineL *mgLevel) {
		halo(coarse, coarse.u)
		for i := 1; i <= fineL.rl; i++ {
			ci := (i + 1) / 2
			fu, cu := fineL.u[i*fineL.n:(i+1)*fineL.n], coarse.u[ci*coarse.n:]
			for j := range fu {
				fu[j] += cu[j/2]
			}
		}
		chargeFlops(c, 2*fineL.rl*fineL.n)
	}

	res0 := resNorm(fine)
	prev := res0
	for cyc := 0; cyc < p.cycles; cyc++ {
		// Down-sweep.
		for l := 0; l < len(levels)-1; l++ {
			smooth(levels[l], 2)
			restrict(levels[l], levels[l+1])
		}
		// Coarse solve: many smoothings on the smallest grid.
		smooth(levels[len(levels)-1], 20)
		// Up-sweep.
		for l := len(levels) - 2; l >= 0; l-- {
			prolong(levels[l+1], levels[l])
			smooth(levels[l], 2)
		}
		got := resNorm(fine)
		if math.IsNaN(got) || got > prev {
			return fmt.Errorf("MG: residual grew in cycle %d: %g -> %g", cyc, prev, got)
		}
		prev = got
	}
	if observe != nil {
		observe(c, fine.u, res0, prev)
	}
	if prev > 0.5*res0 {
		return fmt.Errorf("MG: V-cycles barely converged: %g -> %g", res0, prev)
	}
	return nil
}

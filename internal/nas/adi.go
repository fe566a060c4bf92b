package nas

import (
	"fmt"
	"math"

	"ibflow/internal/enc"
	"ibflow/internal/mpi"
)

// adiParams configures the shared BT/SP skeleton: both are ADI
// (alternating direction implicit) solvers on a square process grid with
// pipelined forward-elimination / back-substitution sweeps. BT solves 5x5
// block systems (fewer, larger messages, heavier per-cell compute); SP
// solves scalar pentadiagonal systems and ships its pipeline faces in
// smaller per-slab chunks (more, smaller messages), which is why SP shows
// slightly more buffer demand per message count in the paper's tables.
type adiParams struct {
	name      string
	n         int // cubic grid side
	iters     int
	cellFlops int // per-cell cost of one directional solve
	zChunks   int // pipeline face split along z (1 = whole face)
}

func btParamsFor(class Class) adiParams {
	switch class {
	case ClassS:
		return adiParams{name: "BT", n: 8, iters: 2, cellFlops: 60, zChunks: 1}
	case ClassW:
		return adiParams{name: "BT", n: 32, iters: 4, cellFlops: 60, zChunks: 1}
	default:
		return adiParams{name: "BT", n: 64, iters: 6, cellFlops: 60, zChunks: 1}
	}
}

func spParamsFor(class Class) adiParams {
	switch class {
	case ClassS:
		return adiParams{name: "SP", n: 8, iters: 2, cellFlops: 18, zChunks: 4}
	case ClassW:
		return adiParams{name: "SP", n: 32, iters: 6, cellFlops: 18, zChunks: 8}
	default:
		return adiParams{name: "SP", n: 64, iters: 8, cellFlops: 18, zChunks: 8}
	}
}

// RunBT is the block-tridiagonal ADI kernel (square process grid).
func RunBT(c *mpi.Comm, class Class) error { return runADI(c, btParamsFor(class)) }

// RunSP is the scalar-pentadiagonal ADI kernel (square process grid).
func RunSP(c *mpi.Comm, class Class) error { return runADI(c, spParamsFor(class)) }

// The implicit operator (I + sigma*L) along one line: sub- and
// super-diagonal a, diagonal b.
const (
	adiSigma = 0.4
	adiA     = -adiSigma
	adiB     = 1 + 2*adiSigma
)

// adi is one rank's share of a BT/SP solve: its block of the field and
// the scratch every sweep reuses.
type adi struct {
	c            *mpi.Comm
	p            adiParams
	nxl, nyl, nz int
	// u[(i*nyl+j)*nz+k] for i in [0,nxl), j in [0,nyl), k in [0,nz); no
	// ghosts (the pipeline passes coefficients, not halos).
	u []float64
	// cp, dp hold the forward elimination's c' and d' per cell, laid out
	// like u, until back substitution consumes them.
	cp, dp []float64
	// pc, pd, x carry each line's Thomas state — c', d' forward, the
	// solution backward — across the steps of one pipeline chunk.
	pc, pd, x []float64
}

// adiDir is one distributed sweep direction. A step is one grid plane
// along the direction; the lines crossing it are numbered
// li = outer*nz + k, and line li's cell in step s sits at
// u[s*stepStride + outer*outerStride + k].
type adiDir struct {
	steps                   int
	stepStride, outerStride int
	coord, q                int // this rank's grid coordinate along the direction, grid side
	prev, next              int // ranks upstream and downstream of the pipeline
	fwdTag, backTag         int
}

// run locates the cells of step st that lines li, li+1, ... occupy
// contiguously, stopping at line end or at the end of li's outer row:
// their offset in u and their count.
func (d adiDir) run(li, end, st, nz int) (off, m int) {
	outer, k := li/nz, li%nz
	return st*d.stepStride + outer*d.outerStride + k, min(end, (outer+1)*nz) - li
}

// runADI implements implicit diffusion sweeps (I + sigma*L) factored per
// direction, with distributed Thomas solves along x and y pipelined over
// the process grid, and local solves along z. Zero Dirichlet boundaries
// make each sweep a contraction, so the field norm must shrink every
// iteration — that is the verification.
func runADI(c *mpi.Comm, p adiParams) error {
	nprocs, me := c.Size(), c.Rank()
	q := int(isqrt(uint64(nprocs)))
	if q*q != nprocs {
		return fmt.Errorf("%s: needs a square process count, got %d", p.name, nprocs)
	}
	n := p.n
	if n%q != 0 {
		return fmt.Errorf("%s: grid %d^3 not divisible over %dx%d", p.name, n, q, q)
	}
	cx, cy := me%q, me/q
	nxl, nyl, nz := n/q, n/q, n
	cells := nxl * nyl * nz
	state := max(nyl*nz/p.zChunks, nxl*nz/p.zChunks, nyl)
	scratch := make([]float64, 2*cells+3*state)
	s := &adi{
		c: c, p: p, nxl: nxl, nyl: nyl, nz: nz,
		u:  make([]float64, cells),
		cp: scratch[:cells], dp: scratch[cells : 2*cells],
		pc: scratch[2*cells : 2*cells+state], pd: scratch[2*cells+state : 2*cells+2*state],
		x: scratch[2*cells+2*state:],
	}
	rng := newPrand(uint64(999 + 7*me))
	for i := range s.u {
		s.u[i] = rng.float64n() - 0.5
	}
	xDir := adiDir{steps: nxl, stepStride: nyl * nz, outerStride: nz,
		coord: cx, q: q, prev: me - 1, next: me + 1, fwdTag: 7000, backTag: 7500}
	yDir := adiDir{steps: nyl, stepStride: nz, outerStride: nyl * nz,
		coord: cy, q: q, prev: me - q, next: me + q, fwdTag: 8000, backTag: 8500}

	norm := func() float64 {
		sum := 0.0
		for _, v := range s.u {
			sum += v * v
		}
		chargeFlops(c, 2*len(s.u))
		return math.Sqrt(allreduceSum(c, sum))
	}

	norm0 := norm()
	prev := norm0
	for iter := 0; iter < p.iters; iter++ {
		s.sweep(xDir)
		s.sweep(yDir)
		s.sweepZ()
		got := norm()
		if math.IsNaN(got) || got >= prev {
			return fmt.Errorf("%s: diffusion norm failed to contract at iter %d: %g -> %g",
				p.name, iter, prev, got)
		}
		prev = got
	}
	if observe != nil {
		observe(c, s.u, norm0, prev)
	}
	if prev > 0.99*norm0 {
		return fmt.Errorf("%s: no meaningful contraction: %g -> %g", p.name, norm0, prev)
	}
	return nil
}

// sweep runs the distributed Thomas solve along d: forward elimination
// downstream, back substitution upstream, pipelined in zChunks pieces of
// the lines. Each step runs over all of a chunk's lines at once, so the
// cells it touches are contiguous runs of up to nz; every line still sees
// its own recurrence in its own order.
func (s *adi) sweep(d adiDir) {
	c, u, cp, dp, nz := s.c, s.u, s.cp, s.dp, s.nz
	cl := s.nxl * s.nyl * nz / d.steps / s.p.zChunks // lines per chunk
	pc, pd, x := s.pc[:cl], s.pd[:cl], s.x[:cl]

	// Forward elimination.
	for ch := 0; ch < s.p.zChunks; ch++ {
		lo := ch * cl
		if d.coord > 0 {
			buf := c.AllocMem(8 * 2 * cl)
			c.Recv(d.prev, d.fwdTag+ch, buf)
			enc.GetF64(buf[:8*cl], pc)
			enc.GetF64(buf[8*cl:], pd)
			c.FreeMem(buf)
		} else {
			clear(pc)
			clear(pd)
		}
		for st := 0; st < d.steps; st++ {
			for l, m := 0, 0; l < cl; l += m {
				var off int
				off, m = d.run(lo+l, lo+cl, st, nz)
				eliminate(pc[l:l+m], pd[l:l+m], u[off:], cp[off:], dp[off:], 1)
			}
		}
		chargeFlops(c, s.p.cellFlops*d.steps*cl/2)
		if d.coord < d.q-1 {
			out := c.AllocMem(8 * 2 * cl)
			enc.PutF64(out, pc)
			enc.PutF64(out[8*cl:], pd)
			c.Send(d.next, d.fwdTag+ch, out)
			c.FreeMem(out)
		}
	}
	// Back substitution.
	for ch := 0; ch < s.p.zChunks; ch++ {
		lo := ch * cl
		if d.coord < d.q-1 {
			buf := c.AllocMem(8 * cl)
			c.Recv(d.next, d.backTag+ch, buf)
			enc.GetF64(buf, x)
			c.FreeMem(buf)
		} else {
			clear(x)
		}
		for st := d.steps - 1; st >= 0; st-- {
			for l, m := 0, 0; l < cl; l += m {
				var off int
				off, m = d.run(lo+l, lo+cl, st, nz)
				substitute(x[l:l+m], u[off:], cp[off:], dp[off:], 1)
			}
		}
		chargeFlops(c, s.p.cellFlops*d.steps*cl/2)
		if d.coord > 0 {
			sendF64(c, d.prev, d.backTag+ch, x)
		}
	}
}

// eliminate advances the forward elimination of len(pc) lines by one
// cell each: pc, pd are the lines' running c' and d'; line l's cell sits
// at l*stride in u, which holds the right-hand sides, and in cp, dp, which
// receive the cell's c' and d'.
func eliminate(pc, pd, u, cp, dp []float64, stride int) {
	pd = pd[:len(pc)]
	for l, c := range pc {
		o := l * stride
		den := adiB - adiA*c
		c = adiA / den // constant upper coefficient c == a here
		d := (u[o] - adiA*pd[l]) / den
		pc[l], pd[l] = c, d
		cp[o], dp[o] = c, d
	}
}

// substitute moves the back substitution of len(x) lines one cell
// upstream: x holds each line's solution in the cell downstream and
// receives, like u, the solution in this one; cells are laid out as for
// eliminate.
func substitute(x, u, cp, dp []float64, stride int) {
	for l, xn := range x {
		o := l * stride
		xn = dp[o] - cp[o]*xn
		x[l], u[o] = xn, xn
	}
}

// sweepZ is the fully local solve along z. The nyl lines of one i-plane
// advance together, one k at a time, so their divisions overlap.
func (s *adi) sweepZ() {
	nyl, nz := s.nyl, s.nz
	pc, pd, x := s.pc[:nyl], s.pd[:nyl], s.x[:nyl]
	for i := 0; i < s.nxl; i++ {
		plane := i * nyl * nz
		clear(pc)
		clear(pd)
		for k := plane; k < plane+nz; k++ {
			eliminate(pc, pd, s.u[k:], s.cp[k:], s.dp[k:], nz)
		}
		clear(x)
		for k := plane + nz - 1; k >= plane; k-- {
			substitute(x, s.u[k:], s.cp[k:], s.dp[k:], nz)
		}
	}
	chargeFlops(s.c, s.p.cellFlops*s.nxl*nyl*nz)
}

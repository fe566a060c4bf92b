package nas

import (
	"fmt"
	"math"

	"ibflow/internal/coll"
	"ibflow/internal/enc"
	"ibflow/internal/mpi"
)

// ftParams holds the 3-D FFT problem scale.
type ftParams struct {
	nx, ny, nz int
	iters      int
}

func ftParamsFor(class Class) ftParams {
	switch class {
	case ClassS:
		return ftParams{nx: 8, ny: 8, nz: 8, iters: 2}
	case ClassW:
		return ftParams{nx: 32, ny: 32, nz: 16, iters: 4}
	default: // ClassA (scaled: the real class A is 256x256x128)
		return ftParams{nx: 64, ny: 64, nz: 32, iters: 6}
	}
}

// twiddles returns the per-stage roots of unity of a length-n transform,
// cos and sin of sign*2π/len for len = 2, 4, ..., n; sign is -1 for
// forward, +1 for inverse.
func twiddles(n int, sign float64) []float64 {
	if n&(n-1) != 0 {
		panic("nas: fft length must be a power of two")
	}
	var tw []float64
	for length := 2; length <= n; length <<= 1 {
		ang := sign * 2 * math.Pi / float64(length)
		tw = append(tw, math.Cos(ang), math.Sin(ang))
	}
	return tw
}

// fft performs an in-place radix-2 transform of the len(a)/2 complex
// values stored interleaved (re, im) in a, with tw from twiddles
// (unnormalized).
func fft(a, tw []float64) {
	n := len(a) / 2
	// Bit-reversal permutation.
	for i, j := 1, 0; i < n; i++ {
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j ^= bit
		if i < j {
			a[2*i], a[2*j] = a[2*j], a[2*i]
			a[2*i+1], a[2*j+1] = a[2*j+1], a[2*i+1]
		}
	}
	for s, length := 0, 2; length <= n; s, length = s+1, length<<1 {
		wr, wi := tw[2*s], tw[2*s+1]
		for i := 0; i < n; i += length {
			cwr, cwi := 1.0, 0.0
			// lo and hi are the butterfly's two halves, each length/2
			// complex values.
			lo, hi := a[2*i:2*i+length], a[2*i+length:2*i+2*length]
			for p := 0; p < length; p += 2 {
				ur, ui := lo[p], lo[p+1]
				vr := hi[p]*cwr - hi[p+1]*cwi
				vi := hi[p]*cwi + hi[p+1]*cwr
				lo[p], lo[p+1] = ur+vr, ui+vi
				hi[p], hi[p+1] = ur-vr, ui-vi
				cwr, cwi = cwr*wr-cwi*wi, cwr*wi+cwi*wr
			}
		}
	}
}

// ftPlan is one rank's FFT state: the twiddles of every transform it
// runs and the scratch its transposes and y-transforms reuse.
type ftPlan struct {
	c                      *mpi.Comm
	nx, ny, nzLoc, colsLoc int
	fwdX, invX, fwdY, invY []float64
	fwdZ, invZ             []float64
	col                    []float64 // one y-column, 2*ny
	stage                  []float64 // a transpose's packed blocks
}

// RunFT is the 3-D FFT kernel. The grid is slab-decomposed along z; the
// x and y transforms are local, and the z transform requires a full
// transpose implemented with a large all-to-all — the rendezvous-heavy
// pattern of NPB FT. Each iteration evolves the spectrum by a
// unit-modulus phase and inverse-transforms it; verification checks
// energy conservation (Parseval) every iteration and an exact round trip
// on the first.
func RunFT(c *mpi.Comm, class Class) error {
	p := ftParamsFor(class)
	n, me := c.Size(), c.Rank()
	nx, ny, nz := p.nx, p.ny, p.nz
	if nz%n != 0 || (nx*ny)%n != 0 {
		return fmt.Errorf("FT: grid %dx%dx%d not divisible across %d ranks", nx, ny, nz, n)
	}
	nzLoc := nz / n         // z-planes per rank in slab layout
	cols := nx * ny         // (x,y) columns in transposed layout
	colsLoc := cols / n     // columns per rank after the transpose
	ntot := nx * ny * nz    // global points
	nloc := nx * ny * nzLoc // local points in slab layout

	f := &ftPlan{
		c: c, nx: nx, ny: ny, nzLoc: nzLoc, colsLoc: colsLoc,
		fwdX: twiddles(nx, -1), invX: twiddles(nx, +1),
		fwdY: twiddles(ny, -1), invY: twiddles(ny, +1),
		fwdZ: twiddles(nz, -1), invZ: twiddles(nz, +1),
		col:   make([]float64, 2*ny),
		stage: make([]float64, 2*nloc),
	}

	// Initial condition: reproducible pseudo-random complex field.
	rng := newPrand(uint64(1565 + 37*me))
	u0 := make([]float64, 2*nloc)
	for i := range u0 {
		u0[i] = rng.float64n() - 0.5
	}
	slab := append([]float64(nil), u0...)

	energy0 := allreduceSum(c, localEnergy(slab))

	// --- forward 3-D FFT ---
	f.fftX(slab, f.fwdX)
	chargeFlops(c, 5*nloc*log2i(nx))
	f.fftY(slab, f.fwdY)
	chargeFlops(c, 5*nloc*log2i(ny))
	// ut is the frequency-space field, kept across iterations (as NPB
	// FT keeps u-tilde).
	ut := make([]float64, 2*nloc)
	f.transpose(ut, slab, true)
	f.fftZ(ut, f.fwdZ)
	chargeFlops(c, 5*colsLoc*nz*log2i(nz))

	// w is the evolved spectrum, back its physical-space image.
	w := make([]float64, 2*nloc)
	back := make([]float64, 2*nloc)
	var energy float64
	for iter := 0; iter <= p.iters; iter++ {
		// Evolve by a per-frequency unit-modulus phase, t = iter.
		t := float64(iter) * 2 * math.Pi
		for col := 0; col < colsLoc; col++ {
			gcol := me*colsLoc + col
			kx, ky := gcol%nx, gcol/nx
			kxy := float64(kx)/float64(nx) + float64(ky)/float64(ny)
			for kz := 0; kz < nz; kz++ {
				ci, cr := math.Sincos(t * (kxy + float64(kz)/float64(nz)))
				i := 2 * (col*nz + kz)
				w[i] = ut[i]*cr - ut[i+1]*ci
				w[i+1] = ut[i]*ci + ut[i+1]*cr
			}
		}
		chargeFlops(c, 8*colsLoc*nz)

		// Inverse 3-D FFT back to physical space.
		f.fftZ(w, f.invZ)
		chargeFlops(c, 5*colsLoc*nz*log2i(nz))
		f.transpose(back, w, false)
		f.fftY(back, f.invY)
		chargeFlops(c, 5*nloc*log2i(ny))
		f.fftX(back, f.invX)
		chargeFlops(c, 5*nloc*log2i(nx))
		scale := 1 / float64(ntot)
		for i := range back {
			back[i] *= scale
		}
		chargeFlops(c, nloc)

		// Verification: the evolution is unitary, so energy must be
		// conserved every iteration...
		if energy = allreduceSum(c, localEnergy(back)); math.Abs(energy-energy0) > 1e-6*(1+energy0) {
			return fmt.Errorf("FT: iter %d energy %g, want %g", iter, energy, energy0)
		}
		// ...and iteration 0 (zero phase) must reproduce the input.
		if iter == 0 {
			for i := range back {
				if math.Abs(back[i]-u0[i]) > 1e-9 {
					return fmt.Errorf("FT: round trip error %g at %d",
						math.Abs(back[i]-u0[i]), i)
				}
			}
		}
	}
	if observe != nil {
		observe(c, back, energy0, energy)
	}
	return nil
}

func localEnergy(a []float64) float64 {
	e := 0.0
	for _, v := range a {
		e += v * v
	}
	return e
}

func log2i(n int) int {
	k := 0
	for 1<<k < n {
		k++
	}
	return k
}

// fftX transforms each x-row of the slab in place.
func (f *ftPlan) fftX(a, tw []float64) {
	for row := range f.ny * f.nzLoc {
		fft(a[2*row*f.nx:2*(row+1)*f.nx], tw)
	}
}

// fftY transforms each y-column of the slab through f.col.
func (f *ftPlan) fftY(a, tw []float64) {
	nx, ny, col := f.nx, f.ny, f.col
	for z := 0; z < f.nzLoc; z++ {
		for x := 0; x < nx; x++ {
			for y := 0; y < ny; y++ {
				i := 2 * ((z*ny+y)*nx + x)
				col[2*y], col[2*y+1] = a[i], a[i+1]
			}
			fft(col, tw)
			for y := 0; y < ny; y++ {
				i := 2 * ((z*ny+y)*nx + x)
				a[i], a[i+1] = col[2*y], col[2*y+1]
			}
		}
	}
}

// fftZ transforms each full-length z-column of the transposed layout.
func (f *ftPlan) fftZ(a, tw []float64) {
	nz := f.nzLoc * f.c.Size()
	for col := 0; col < f.colsLoc; col++ {
		fft(a[2*col*nz:2*(col+1)*nz], tw)
	}
}

// transpose redistributes a into out between the slab layout (all (x,y)
// for nzLoc z-planes) and the column layout (all z for colsLoc (x,y)
// columns) with one large all-to-all; forward selects the direction.
// The all-to-all's buffers come from the rank's allocator and go back
// once it is done; f.stage holds the packed blocks on either side of it.
func (f *ftPlan) transpose(out, a []float64, forward bool) {
	c, nx, ny, nzLoc, colsLoc := f.c, f.nx, f.ny, f.nzLoc, f.colsLoc
	n := c.Size()
	nz := nzLoc * n
	block := nzLoc * colsLoc * 2 // float64s per destination
	stage := f.stage
	if forward {
		// slab -> columns: destination j owns columns [j*colsLoc, ...).
		for j := 0; j < n; j++ {
			idx := j * block
			for z := 0; z < nzLoc; z++ {
				copy(stage[idx:idx+2*colsLoc], a[2*(z*nx*ny+j*colsLoc):])
				idx += 2 * colsLoc
			}
		}
	} else {
		// columns -> slab: destination j owns z-planes [j*nzLoc, ...).
		for j := 0; j < n; j++ {
			idx := j * block
			for z := j * nzLoc; z < (j+1)*nzLoc; z++ {
				for col := 0; col < colsLoc; col++ {
					i := 2 * (col*nz + z)
					stage[idx] = a[i]
					stage[idx+1] = a[i+1]
					idx += 2
				}
			}
		}
	}
	sb := enc.PutF64(c.AllocMem(8*len(stage)), stage)
	rb := c.AllocMem(len(sb))
	coll.Alltoall(c, sb, rb, block*8)
	enc.GetF64(rb, stage)
	c.FreeMem(sb)
	c.FreeMem(rb)

	if forward {
		// From src i: its z-planes [i*nzLoc...) for my columns.
		for i := 0; i < n; i++ {
			idx := i * block
			for z := i * nzLoc; z < (i+1)*nzLoc; z++ {
				for col := 0; col < colsLoc; col++ {
					o := 2 * (col*nz + z)
					out[o] = stage[idx]
					out[o+1] = stage[idx+1]
					idx += 2
				}
			}
		}
	} else {
		// From src i: my z-planes for its columns [i*colsLoc...).
		for i := 0; i < n; i++ {
			idx := i * block
			for z := 0; z < nzLoc; z++ {
				copy(out[2*(z*nx*ny+i*colsLoc):], stage[idx:idx+2*colsLoc])
				idx += 2 * colsLoc
			}
		}
	}
}

package nas

import (
	"fmt"

	"ibflow/internal/enc"
	"ibflow/internal/mpi"
)

// luParams holds the SSOR problem scale (cubic grid).
type luParams struct {
	n     int // grid points per side
	iters int
}

func luParamsFor(class Class) luParams {
	switch class {
	case ClassS:
		return luParams{n: 8, iters: 2}
	case ClassW:
		return luParams{n: 32, iters: 4}
	default: // ClassA (real class A is 64^3 x 250 iterations)
		return luParams{n: 64, iters: 8}
	}
}

// faceComps mirrors NPB LU's 5 solution components per grid point: our
// numerics are scalar, but wire messages carry 5 values per point so the
// message sizes (and therefore the flow control behaviour) match NPB.
const faceComps = 5

// luOmega is the SSOR over-relaxation factor.
const luOmega = 1.2

// RunLU is the SSOR kernel. The (i,j) plane is decomposed over a 2-D
// process grid with z intact; each SSOR iteration sweeps the z-planes
// twice (lower and upper triangular), with a 2-D pipelined wavefront per
// plane: receive from north/west, update, send to south/east (reversed
// for the upper sweep). The wavefront source runs ahead of the pipeline,
// flooding its neighbours with up to nz-1 small messages — this is the
// pattern that makes LU the paper's worst case: 18% explicit credit
// messages under the static scheme (Table 1) and 63 pre-posted buffers
// under the dynamic scheme (Table 2).
func RunLU(c *mpi.Comm, class Class) error {
	p := luParamsFor(class)
	nprocs, me := c.Size(), c.Rank()
	px, py := grid2(nprocs)
	cx, cy := me%px, me/px
	n := p.n
	if n%px != 0 || n%py != 0 {
		return fmt.Errorf("LU: grid %d^3 not divisible over %dx%d", n, px, py)
	}
	nxl, nyl := n/px, n/py // local extent in i and j
	nz := n

	// Scalar field with one ghost layer in i and j; z needs none (it is
	// local). Point (k, i, j), i in [0, nxl+1], j in [0, nyl+1], sits at
	// k*plane + i*sy + j.
	sy := nyl + 2
	plane := (nxl + 2) * sy
	u := make([]float64, nz*plane)
	f := make([]float64, nz*plane)
	rng := newPrand(uint64(42 + me))
	for k := 0; k < nz; k++ {
		for i := 1; i <= nxl; i++ {
			for j := 1; j <= nyl; j++ {
				f[k*plane+i*sy+j] = rng.float64n()
			}
		}
	}
	// zero stands in for the planes beyond the z boundaries.
	zero := make([]float64, plane)

	// Message buffers: a west/east face column is nyl points, a
	// north/south face row is nxl points, each padded to 5 components.
	colBuf := make([]float64, faceComps*nyl)
	rowBuf := make([]float64, faceComps*nxl)
	colBytes := make([]byte, 8*len(colBuf))
	rowBytes := make([]byte, 8*len(rowBuf))

	// recvCol and sendCol move column i (j = 1..nyl) of plane k; recvRow
	// and sendRow move row j (i = 1..nxl).
	recvCol := func(from, tag, k, i int) {
		c.Recv(from, tag, colBytes)
		enc.GetF64(colBytes, colBuf)
		col := u[k*plane+i*sy+1:]
		for j := range nyl {
			col[j] = colBuf[j*faceComps]
		}
	}
	sendCol := func(to, tag, k, i int) {
		col := u[k*plane+i*sy+1:]
		for j := range nyl {
			colBuf[j*faceComps] = col[j]
		}
		enc.PutF64(colBytes, colBuf)
		c.Send(to, tag, colBytes)
	}
	recvRow := func(from, tag, k, j int) {
		c.Recv(from, tag, rowBytes)
		enc.GetF64(rowBytes, rowBuf)
		for i := range nxl {
			u[k*plane+(i+1)*sy+j] = rowBuf[i*faceComps]
		}
	}
	sendRow := func(to, tag, k, j int) {
		for i := range nxl {
			rowBuf[i*faceComps] = u[k*plane+(i+1)*sy+j]
		}
		enc.PutF64(rowBytes, rowBuf)
		c.Send(to, tag, rowBytes)
	}

	west, east := me-1, me+1
	north, south := me-px, me+px

	// One hybrid Gauss-Seidel plane update. dir=+1 uses already-updated
	// west/north/below neighbours (lower sweep); dir=-1 the opposite.
	planeUpdate := func(k, dir int) float64 {
		cur, fk := u[k*plane:(k+1)*plane], f[k*plane:(k+1)*plane]
		below, above := zero, zero
		if k > 0 {
			below = u[(k-1)*plane : k*plane]
		}
		if k < nz-1 {
			above = u[(k+1)*plane : (k+2)*plane]
		}
		delta := 0.0
		if dir > 0 {
			for i := 1; i <= nxl; i++ {
				for o := i*sy + 1; o <= i*sy+nyl; o++ {
					delta += relax(cur, below, above, fk, o, sy)
				}
			}
		} else {
			for i := nxl; i >= 1; i-- {
				for o := i*sy + nyl; o >= i*sy+1; o-- {
					delta += relax(cur, below, above, fk, o, sy)
				}
			}
		}
		chargeFlops(c, 14*nxl*nyl)
		return delta
	}

	// Face exchange scratch: one packed or unpacked face.
	face := make([]float64, nz*max(nxl, nyl))

	var firstDelta, lastDelta float64
	for iter := 0; iter < p.iters; iter++ {
		delta := 0.0
		// Lower-triangular sweep: wavefront from the north-west corner.
		for k := 0; k < nz; k++ {
			if cx > 0 {
				recvCol(west, 1000+k, k, 0)
			}
			if cy > 0 {
				recvRow(north, 2000+k, k, 0)
			}
			delta += planeUpdate(k, +1)
			if cx < px-1 {
				sendCol(east, 1000+k, k, nxl)
			}
			if cy < py-1 {
				sendRow(south, 2000+k, k, nyl)
			}
		}
		// Upper-triangular sweep: wavefront from the south-east corner.
		for k := nz - 1; k >= 0; k-- {
			if cx < px-1 {
				recvCol(east, 3000+k, k, nxl+1)
			}
			if cy < py-1 {
				recvRow(south, 4000+k, k, nyl+1)
			}
			delta += planeUpdate(k, -1)
			if cx > 0 {
				sendCol(west, 3000+k, k, 1)
			}
			if cy > 0 {
				sendRow(north, 4000+k, k, 1)
			}
		}

		// Full-face ghost refresh (NPB LU's exchange_3): one large
		// rendezvous-sized message per neighbour direction.
		exchangeFaces(c, u, face, nz, nxl, nyl, cx, cy, px, py)

		delta = allreduceSum(c, delta)
		if iter == 0 {
			firstDelta = delta
		}
		if iter > 0 && delta > lastDelta*1.0001 {
			return fmt.Errorf("LU: update norm grew at iter %d: %g -> %g", iter, lastDelta, delta)
		}
		lastDelta = delta
	}
	if observe != nil {
		observe(c, u, firstDelta, lastDelta)
	}
	if p.iters > 1 && lastDelta > 0.9*firstDelta {
		return fmt.Errorf("LU: SSOR failed to converge: %g -> %g", firstDelta, lastDelta)
	}
	return nil
}

// relax over-relaxes cell o of plane cur (row stride sy) towards the
// average of its six neighbours and its source term, and returns the
// squared change.
func relax(cur, below, above, f []float64, o, sy int) float64 {
	avg := (cur[o-sy] + cur[o+sy] + cur[o-1] + cur[o+1] + below[o] + above[o] + f[o]) / 6.0
	nv := (1-luOmega)*cur[o] + luOmega*avg
	d := nv - cur[o]
	cur[o] = nv
	return d * d
}

// exchangeFaces refreshes the full i and j ghost faces with neighbours
// using large Sendrecv messages (nz*edge points). face is the packing
// scratch; every buffer MPI sees comes from the rank's allocator, one per
// message, and goes back once its Sendrecv is done.
func exchangeFaces(c *mpi.Comm, u, face []float64, nz, nxl, nyl, cx, cy, px, py int) {
	me := c.Rank()
	west, east := me-1, me+1
	north, south := me-px, me+px
	sy := nyl + 2
	plane := (nxl + 2) * sy
	// exchange sends the packed face sb, which it frees, and receives into rb.
	exchange := func(sb []byte, to, stag, from, rtag int, rb []byte) {
		c.Sendrecv(to, stag, sb, from, rtag, rb)
		c.FreeMem(sb)
	}

	// Column faces: i fixed, j = 1..nyl.
	col := face[:nz*nyl]
	pack := func(i int) []byte {
		for k := range nz {
			copy(col[k*nyl:(k+1)*nyl], u[k*plane+i*sy+1:])
		}
		return enc.PutF64(c.AllocMem(8*len(col)), col)
	}
	unpack := func(b []byte, i int) {
		enc.GetF64(b, col)
		for k := range nz {
			copy(u[k*plane+i*sy+1:k*plane+i*sy+1+nyl], col[k*nyl:])
		}
	}
	buf := c.AllocMem(8 * nz * nyl)
	if cx > 0 && cx < px-1 {
		exchange(pack(nxl), east, 5000, west, 5000, buf)
		unpack(buf, 0)
		exchange(pack(1), west, 5001, east, 5001, buf)
		unpack(buf, nxl+1)
	} else if cx == 0 && px > 1 {
		exchange(pack(nxl), east, 5000, east, 5001, buf)
		unpack(buf, nxl+1)
	} else if cx == px-1 && px > 1 {
		exchange(pack(1), west, 5001, west, 5000, buf)
		unpack(buf, 0)
	}
	c.FreeMem(buf)

	// Row faces: j fixed, i = 1..nxl.
	row := face[:nz*nxl]
	packR := func(j int) []byte {
		for k := range nz {
			for i := range nxl {
				row[k*nxl+i] = u[k*plane+(i+1)*sy+j]
			}
		}
		return enc.PutF64(c.AllocMem(8*len(row)), row)
	}
	unpackR := func(b []byte, j int) {
		enc.GetF64(b, row)
		for k := range nz {
			for i := range nxl {
				u[k*plane+(i+1)*sy+j] = row[k*nxl+i]
			}
		}
	}
	rbuf := c.AllocMem(8 * nz * nxl)
	if cy > 0 && cy < py-1 {
		exchange(packR(nyl), south, 5002, north, 5002, rbuf)
		unpackR(rbuf, 0)
		exchange(packR(1), north, 5003, south, 5003, rbuf)
		unpackR(rbuf, nyl+1)
	} else if cy == 0 && py > 1 {
		exchange(packR(nyl), south, 5002, south, 5003, rbuf)
		unpackR(rbuf, nyl+1)
	} else if cy == py-1 && py > 1 {
		exchange(packR(1), north, 5003, north, 5002, rbuf)
		unpackR(rbuf, 0)
	}
	c.FreeMem(rbuf)
}

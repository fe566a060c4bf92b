package nas

import (
	"fmt"
	"slices"

	"ibflow/internal/coll"
	"ibflow/internal/enc"
	"ibflow/internal/mpi"
)

// isParams holds the Integer Sort problem scale.
type isParams struct {
	totalKeys int // across all ranks
	maxKey    int32
	buckets   int
	iters     int
}

func isParamsFor(class Class) isParams {
	switch class {
	case ClassS:
		return isParams{totalKeys: 1 << 12, maxKey: 1 << 11, buckets: 128, iters: 3}
	case ClassW:
		return isParams{totalKeys: 1 << 15, maxKey: 1 << 14, buckets: 512, iters: 6}
	default: // ClassA
		return isParams{totalKeys: 1 << 17, maxKey: 1 << 16, buckets: 1024, iters: 10}
	}
}

// RunIS is the Integer Sort kernel: repeated parallel bucket sort. Per
// iteration it allreduces the bucket histogram (medium message) and runs
// an all-to-all-v redistributing the keys (the bursty phase the paper's
// Table 2 shows needing ~4 buffers), then verifies global order.
func RunIS(c *mpi.Comm, class Class) error {
	p := isParamsFor(class)
	n, me := c.Size(), c.Rank()
	local := p.totalKeys / n

	rng := newPrand(uint64(314159265 + me*271828))
	keys := make([]int32, local)
	for i := range keys {
		keys[i] = int32(rng.intn(int(p.maxKey)))
	}

	// Scratch reused by every iteration; what MPI sees comes from the
	// rank's allocator and goes back once the collective is done with it.
	hist := make([]int64, p.buckets)
	ghist := make([]int64, p.buckets)
	owner := make([]int, p.buckets)
	sendKeys := make([]int32, local)
	cnt := make([]int64, n)
	// Per destination rank: key counts and offsets, sent and received,
	// and the send cursor; the byte counts and offsets Alltoallv takes.
	sc, so, rc, ro, fill := make([]int, n), make([]int, n), make([]int, n), make([]int, n), make([]int, n)
	scB, soB := make([]int, n), make([]int, n)

	var sorted []int32
	for iter := 0; iter < p.iters; iter++ {
		// Local bucket histogram. NPB charges ~N/p work per pass.
		clear(hist)
		bshift := int32(p.maxKey) / int32(p.buckets)
		for _, k := range keys {
			hist[int(k/bshift)]++
		}
		chargeFlops(c, 2*local)

		// Global histogram so every rank knows the bucket split.
		hbuf := enc.PutI64(c.AllocMem(8*len(hist)), hist)
		coll.Allreduce(c, hbuf, coll.SumI64)
		enc.GetI64(hbuf, ghist)
		c.FreeMem(hbuf)

		// Assign contiguous bucket ranges to ranks, balancing keys.
		perRank := int64(p.totalKeys / n)
		acc, r := int64(0), 0
		for b := 0; b < p.buckets; b++ {
			owner[b] = r
			acc += ghist[b]
			if acc >= perRank && r < n-1 {
				acc = 0
				r++
			}
		}

		// Partition local keys by destination rank.
		clear(sc)
		for _, k := range keys {
			sc[owner[int(k/bshift)]]++
		}
		for i := 1; i < n; i++ {
			so[i] = so[i-1] + sc[i-1]
		}
		copy(fill, so)
		for _, k := range keys {
			d := owner[int(k/bshift)]
			sendKeys[fill[d]] = k
			fill[d]++
		}
		chargeFlops(c, 3*local)

		// Exchange key counts, then the keys (all-to-all-v).
		for i, v := range sc {
			cnt[i] = int64(v)
		}
		cntBuf := enc.PutI64(c.AllocMem(8*len(cnt)), cnt)
		rcntBuf := c.AllocMem(len(cntBuf))
		coll.Alltoall(c, cntBuf, rcntBuf, 8)
		enc.GetI64(rcntBuf, cnt) // now the counts each rank sends here
		c.FreeMem(cntBuf)
		c.FreeMem(rcntBuf)
		rtotal := 0
		for i := 0; i < n; i++ {
			rc[i] = int(cnt[i]) * 4
			ro[i] = rtotal
			rtotal += rc[i]
		}
		for i := 0; i < n; i++ {
			scB[i] = sc[i] * 4
			soB[i] = so[i] * 4
		}
		sendBuf := enc.PutI32(c.AllocMem(4*len(sendKeys)), sendKeys)
		recvBuf := c.AllocMem(rtotal)
		coll.Alltoallv(c, sendBuf, scB, soB, recvBuf, rc, ro)
		c.FreeMem(sendBuf)

		// Full sort only on the final iteration (as NPB does).
		if iter == p.iters-1 {
			sorted = enc.I32s(recvBuf)
			slices.Sort(sorted)
			chargeFlops(c, 12*len(sorted))
		} else {
			chargeFlops(c, 2*(rtotal/4))
		}
		c.FreeMem(recvBuf)
	}

	if observe != nil {
		field := make([]float64, len(sorted))
		for i, k := range sorted {
			field[i] = float64(k)
		}
		observe(c, field)
	}
	return verifyIS(c, sorted, p.totalKeys)
}

// verifyIS checks local ordering, that each rank's minimum is no less
// than its left neighbor's maximum (global order), and that the ranks
// together hold exactly totalKeys keys (conservation).
func verifyIS(c *mpi.Comm, sorted []int32, totalKeys int) error {
	n, me := c.Size(), c.Rank()
	for i := 1; i < len(sorted); i++ {
		if sorted[i-1] > sorted[i] {
			return fmt.Errorf("IS: rank %d locally unsorted at %d", me, i)
		}
	}
	var myMax int32 = -1 << 31
	if len(sorted) > 0 {
		myMax = sorted[len(sorted)-1]
	}
	const tag = 999
	if me+1 < n {
		sb := enc.PutI32(c.AllocMem(4), []int32{myMax})
		c.Send(me+1, tag, sb)
		c.FreeMem(sb)
	}
	if me > 0 {
		rb := c.AllocMem(4)
		c.Recv(me-1, tag, rb)
		leftMax := enc.I32s(rb)[0]
		c.FreeMem(rb)
		if len(sorted) > 0 && sorted[0] < leftMax {
			return fmt.Errorf("IS: rank %d min %d below left max %d", me, sorted[0], leftMax)
		}
	}
	cnt := enc.PutI64(c.AllocMem(8), []int64{int64(len(sorted))})
	coll.Allreduce(c, cnt, coll.SumI64)
	total := enc.I64s(cnt)[0]
	c.FreeMem(cnt)
	if total != int64(totalKeys) {
		return fmt.Errorf("IS: key count not conserved: %d keys, want %d", total, totalKeys)
	}
	return nil
}

package coll

import (
	"fmt"

	"ibflow/internal/mpi"
)

// Additional collective algorithms, selectable explicitly. The defaults in
// coll.go are the classic MPICH choices for small/medium messages; the
// variants here win in other regimes and are compared by the algorithm
// ablation in internal/bench.

const (
	tagBruck = 1<<20 + 64 + iota
	tagSAG
	tagRing
)

// AlltoallBruck is Bruck's log-round all-to-all: each of ceil(log2 n)
// rounds combines many small blocks into one message, trading bandwidth
// (each block travels multiple hops) for far fewer messages — the right
// trade for very small blocks on a latency-bound fabric.
func AlltoallBruck(c *mpi.Comm, send, recv []byte, block int) {
	n, me := c.Size(), c.Rank()
	if len(send) != n*block || len(recv) != n*block {
		panic(fmt.Sprintf("coll: bruck buffers %d/%d for %d ranks of block %d",
			len(send), len(recv), n, block))
	}
	// Phase 1: local rotation so tmp[i] is the block for rank (me+i)%n.
	tmp := c.AllocMem(n * block)
	for i := 0; i < n; i++ {
		copy(tmp[i*block:(i+1)*block], send[((me+i)%n)*block:((me+i)%n+1)*block])
	}
	// Phase 2: log rounds of combined exchanges.
	pack := c.AllocMem(n * block)
	for pow := 1; pow < n; pow <<= 1 {
		dst := (me + pow) % n
		src := (me - pow + n) % n
		k := 0
		for i := 0; i < n; i++ {
			if i&pow != 0 {
				copy(pack[k*block:(k+1)*block], tmp[i*block:(i+1)*block])
				k++
			}
		}
		in := c.AllocMem(k * block)
		c.Sendrecv(dst, tagBruck, pack[:k*block], src, tagBruck, in)
		k = 0
		for i := 0; i < n; i++ {
			if i&pow != 0 {
				copy(tmp[i*block:(i+1)*block], in[k*block:(k+1)*block])
				k++
			}
		}
		c.FreeMem(in)
	}
	c.FreeMem(pack)
	// Phase 3: inverse rotation places src j's block at recv[j].
	for i := 0; i < n; i++ {
		copy(recv[((me-i+n)%n)*block:((me-i+n)%n+1)*block], tmp[i*block:(i+1)*block])
	}
	c.FreeMem(tmp)
}

// chunkRanges splits length bytes into n contiguous ranges aligned to
// align bytes (the last range absorbs the remainder).
func chunkRanges(length, n, align int) [][2]int {
	out := make([][2]int, n)
	per := length / n
	per -= per % align
	off := 0
	for i := 0; i < n; i++ {
		end := off + per
		if i == n-1 {
			end = length
		}
		out[i] = [2]int{off, end}
		off = end
	}
	return out
}

// BcastSAG broadcasts large data as scatter + ring allgather: every link
// carries ~2x(data/n) bytes instead of the binomial tree's full copies,
// which wins once the message is bandwidth-bound.
func BcastSAG(c *mpi.Comm, root int, data []byte) {
	n, me := c.Size(), c.Rank()
	if n == 1 || len(data) == 0 {
		return
	}
	ranges := chunkRanges(len(data), n, 8)
	// Scatter: root sends chunk i to rank i.
	if me == root {
		for i := 0; i < n; i++ {
			if i == root {
				continue
			}
			r := ranges[i]
			if r[1] > r[0] {
				c.Send(i, tagSAG, data[r[0]:r[1]])
			}
		}
	} else {
		r := ranges[me]
		if r[1] > r[0] {
			c.Recv(root, tagSAG, data[r[0]:r[1]])
		}
	}
	// Ring allgather of the chunks.
	right := (me + 1) % n
	left := (me - 1 + n) % n
	cur := me
	for step := 0; step < n-1; step++ {
		next := (cur - 1 + n) % n
		out := data[ranges[cur][0]:ranges[cur][1]]
		in := data[ranges[next][0]:ranges[next][1]]
		switch {
		case len(out) > 0 && len(in) > 0:
			c.Sendrecv(right, tagSAG, out, left, tagSAG, in)
		case len(out) > 0:
			c.Send(right, tagSAG, out)
		case len(in) > 0:
			c.Recv(left, tagSAG, in)
		}
		cur = next
	}
}

// AllreduceRing is the bandwidth-optimal ring allreduce (reduce-scatter
// ring followed by allgather ring); each link carries ~2x(data/n) bytes.
// op must be associative and commutative and operate on 8-byte elements.
func AllreduceRing(c *mpi.Comm, data []byte, op ReduceOp) {
	n, me := c.Size(), c.Rank()
	if n == 1 {
		return
	}
	ranges := chunkRanges(len(data), n, 8)
	right := (me + 1) % n
	left := (me - 1 + n) % n
	scratch := c.AllocMem(len(data))

	// Reduce-scatter: after n-1 steps rank i holds the full reduction
	// of chunk (i+1)%n.
	for step := 0; step < n-1; step++ {
		sendIdx := (me - step + n) % n
		recvIdx := (me - step - 1 + n) % n
		out := data[ranges[sendIdx][0]:ranges[sendIdx][1]]
		in := scratch[ranges[recvIdx][0]:ranges[recvIdx][1]]
		switch {
		case len(out) > 0 && len(in) > 0:
			c.Sendrecv(right, tagRing, out, left, tagRing, in)
		case len(out) > 0:
			c.Send(right, tagRing, out)
		case len(in) > 0:
			c.Recv(left, tagRing, in)
		}
		if len(in) > 0 {
			op(data[ranges[recvIdx][0]:ranges[recvIdx][1]], in)
		}
	}
	// Allgather ring of the reduced chunks.
	cur := (me + 1) % n
	for step := 0; step < n-1; step++ {
		next := (cur - 1 + n) % n
		out := data[ranges[cur][0]:ranges[cur][1]]
		in := data[ranges[next][0]:ranges[next][1]]
		switch {
		case len(out) > 0 && len(in) > 0:
			c.Sendrecv(right, tagRing, out, left, tagRing, in)
		case len(out) > 0:
			c.Send(right, tagRing, out)
		case len(in) > 0:
			c.Recv(left, tagRing, in)
		}
		cur = next
	}
	c.FreeMem(scratch)
}

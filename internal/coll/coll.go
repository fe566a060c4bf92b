// Package coll implements MPI collective operations over the
// point-to-point layer, with the classic algorithms MPICH-era stacks used:
// dissemination barrier, binomial-tree broadcast and reduce, recursive
// doubling allreduce, and pairwise-exchange all-to-all (Alltoallv for
// variable blocks). The NAS kernels in internal/nas and the repo
// benchmark's collective rungs are built on these. Every scratch buffer
// a collective hands to the point-to-point layer comes from Comm.AllocMem
// and goes back through Comm.FreeMem when the collective is done with it.
package coll

import (
	"fmt"

	"ibflow/internal/mpi"
)

// Collective operations tag space, kept away from application tags.
const (
	tagBarrier = 1<<20 + iota
	tagBcast
	tagReduce
	tagAllreduce
	tagAlltoall
)

// ReduceOp combines src into dst element-wise; both slices encode the same
// number of elements.
type ReduceOp func(dst, src []byte)

// Barrier blocks until every rank reached it (dissemination algorithm:
// ceil(log2 n) rounds of pairwise exchanges).
func Barrier(c *mpi.Comm) {
	n, me := c.Size(), c.Rank()
	if n == 1 {
		return
	}
	start := c.Time()
	buf := c.AllocMem(2) // one byte out, one in
	for dist := 1; dist < n; dist *= 2 {
		to := (me + dist) % n
		from := (me - dist + n) % n
		c.Sendrecv(to, tagBarrier, buf[:1], from, tagBarrier, buf[1:])
	}
	c.FreeMem(buf)
	c.World().ObserveBarrier(c.Time() - start)
}

// Bcast distributes root's data to every rank via a binomial tree. All
// ranks pass a buffer of identical length; non-roots receive into it.
func Bcast(c *mpi.Comm, root int, data []byte) {
	n, me := c.Size(), c.Rank()
	if n == 1 {
		return
	}
	rel := (me - root + n) % n
	// Receive from parent.
	if rel != 0 {
		mask := 1
		for mask < n {
			if rel&mask != 0 {
				parent := ((rel - mask) + root) % n
				c.Recv(parent, tagBcast, data)
				break
			}
			mask *= 2
		}
	}
	// Forward to children.
	mask := 1
	for mask < n {
		if rel&mask != 0 {
			break
		}
		mask *= 2
	}
	for m := mask / 2; m >= 1; m /= 2 {
		child := rel + m
		if child < n {
			c.Send((child+root)%n, tagBcast, data)
		}
	}
}

// Reduce combines every rank's data into root's buffer using op (binomial
// tree). data is both input and, on root, output.
func Reduce(c *mpi.Comm, root int, data []byte, op ReduceOp) {
	n, me := c.Size(), c.Rank()
	if n == 1 {
		return
	}
	rel := (me - root + n) % n
	tmp := c.AllocMem(len(data))
	mask := 1
	for mask < n {
		if rel&mask != 0 {
			parent := ((rel - mask) + root) % n
			c.Send(parent, tagReduce, data)
			break
		}
		peer := rel + mask
		if peer < n {
			c.Recv((peer+root)%n, tagReduce, tmp)
			op(data, tmp)
		}
		mask *= 2
	}
	c.FreeMem(tmp)
}

// Allreduce combines every rank's data and leaves the result everywhere.
// Power-of-two sizes use recursive doubling; other sizes fall back to
// reduce + broadcast.
func Allreduce(c *mpi.Comm, data []byte, op ReduceOp) {
	n := c.Size()
	if n == 1 {
		return
	}
	if n&(n-1) == 0 {
		me := c.Rank()
		tmp := c.AllocMem(len(data))
		for mask := 1; mask < n; mask *= 2 {
			peer := me ^ mask
			c.Sendrecv(peer, tagAllreduce, data, peer, tagAllreduce, tmp)
			op(data, tmp)
		}
		c.FreeMem(tmp)
		return
	}
	Reduce(c, 0, data, op)
	Bcast(c, 0, data)
}

// Alltoall exchanges equal-size blocks: rank i's send[j] block lands in
// rank j's recv[i] block. send and recv are n*block bytes.
func Alltoall(c *mpi.Comm, send, recv []byte, block int) {
	n, me := c.Size(), c.Rank()
	if len(send) != n*block || len(recv) != n*block {
		panic(fmt.Sprintf("coll: alltoall buffers %d/%d for %d ranks of block %d",
			len(send), len(recv), n, block))
	}
	copy(recv[me*block:(me+1)*block], send[me*block:(me+1)*block])
	reqs := make([]*mpi.Request, 0, 2*(n-1))
	// Pairwise exchange schedule: in phase p exchange with me^p when n
	// is a power of two; otherwise send to (me+p) and receive from
	// (me-p), which is the matching partner of that shift.
	for p := 1; p < n; p++ {
		to, from := me^p, me^p
		if n&(n-1) != 0 {
			to = (me + p) % n
			from = (me - p + n) % n
		}
		reqs = append(reqs,
			c.Irecv(from, tagAlltoall, recv[from*block:(from+1)*block]),
			c.Isend(to, tagAlltoall, send[to*block:(to+1)*block]))
	}
	c.Waitall(reqs...)
}

// Alltoallv exchanges variable-size blocks; sendCounts[j] bytes go to rank
// j from offset sendOffs[j], and recvCounts[i] bytes arrive from rank i at
// recvOffs[i].
func Alltoallv(c *mpi.Comm, send []byte, sendCounts, sendOffs []int,
	recv []byte, recvCounts, recvOffs []int) {
	n, me := c.Size(), c.Rank()
	copy(recv[recvOffs[me]:recvOffs[me]+recvCounts[me]],
		send[sendOffs[me]:sendOffs[me]+sendCounts[me]])
	reqs := make([]*mpi.Request, 0, 2*(n-1))
	for p := 1; p < n; p++ {
		to, from := me^p, me^p
		if n&(n-1) != 0 {
			to = (me + p) % n
			from = (me - p + n) % n
		}
		reqs = append(reqs,
			c.Irecv(from, tagAlltoall, recv[recvOffs[from]:recvOffs[from]+recvCounts[from]]),
			c.Isend(to, tagAlltoall, send[sendOffs[to]:sendOffs[to]+sendCounts[to]]))
	}
	c.Waitall(reqs...)
}

package coll

import "ibflow/internal/mpi"

const (
	tagScan = 1<<20 + 128 + iota
	tagGatherv
	tagScatterv
)

// Scan computes the inclusive prefix reduction: rank i ends with
// op(data_0, ..., data_i). Linear pipeline, as MPICH uses for short
// vectors.
func Scan(c *mpi.Comm, data []byte, op ReduceOp) {
	n, me := c.Size(), c.Rank()
	if n == 1 {
		return
	}
	if me > 0 {
		prev := c.AllocMem(len(data))
		c.Recv(me-1, tagScan, prev)
		op(data, prev)
		c.FreeMem(prev)
	}
	if me < n-1 {
		c.Send(me+1, tagScan, data)
	}
}

// Exscan computes the exclusive prefix reduction: rank i ends with
// op(data_0, ..., data_(i-1)); rank 0's buffer is left untouched (its
// exclusive prefix is the identity, which this byte-level API cannot
// synthesize).
func Exscan(c *mpi.Comm, data []byte, op ReduceOp) {
	n, me := c.Size(), c.Rank()
	if n == 1 {
		return
	}
	// Compute the inclusive prefix in a scratch buffer, forwarding it,
	// while the caller's buffer receives the exclusive value.
	incl := c.AllocMem(len(data))
	copy(incl, data)
	if me > 0 {
		prev := c.AllocMem(len(data))
		c.Recv(me-1, tagScan, prev)
		op(incl, prev)
		copy(data, prev)
		c.FreeMem(prev)
	}
	if me < n-1 {
		c.Send(me+1, tagScan, incl)
	}
	c.FreeMem(incl)
}

// Gatherv collects variable-size blocks at root: rank i contributes
// send (its own length); on root, block i lands at recv[offs[i]:offs[i]+
// counts[i]]. Non-roots may pass nil recv/counts/offs.
func Gatherv(c *mpi.Comm, root int, send []byte, recv []byte, counts, offs []int) {
	n, me := c.Size(), c.Rank()
	if me == root {
		copy(recv[offs[me]:offs[me]+counts[me]], send)
		for i := 0; i < n; i++ {
			if i == root || counts[i] == 0 {
				continue
			}
			c.Recv(i, tagGatherv, recv[offs[i]:offs[i]+counts[i]])
		}
		return
	}
	if len(send) > 0 {
		c.Send(root, tagGatherv, send)
	}
}

// Scatterv distributes variable-size blocks from root: rank i receives
// send[offs[i]:offs[i]+counts[i]] into recv. Non-roots may pass nil
// send/counts/offs... except counts/offs must be valid on root only.
func Scatterv(c *mpi.Comm, root int, send []byte, counts, offs []int, recv []byte) {
	n, me := c.Size(), c.Rank()
	if me == root {
		copy(recv, send[offs[me]:offs[me]+counts[me]])
		for i := 0; i < n; i++ {
			if i == root || counts[i] == 0 {
				continue
			}
			c.Send(i, tagScatterv, send[offs[i]:offs[i]+counts[i]])
		}
		return
	}
	if len(recv) > 0 {
		c.Recv(root, tagScatterv, recv)
	}
}

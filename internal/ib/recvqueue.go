package ib

import "ibflow/internal/store"

// recvProvisioner is the seam between a QP's delivery path and whatever
// owns its receive descriptors: the per-QP FIFO of a classic Reliable
// Connection, or a shared receive queue (SRQ) serving many QPs. The
// delivery path only ever asks two questions — "is anything posted?" and
// "give me the next descriptor" — so a send arriving when take has
// nothing to give triggers the RNR NAK path identically whether the
// provisioner is a private queue or a shared pool. "Pool empty" and
// "queue empty" produce the same receiver-not-ready semantics by
// construction.
type recvProvisioner interface {
	// take consumes the next receive descriptor in FIFO order.
	take() (recvWQE, bool)
	// posted reports descriptors currently available to arrivals.
	posted() int
}

// RecvSource supplies the host bytes behind a descriptor-only receive
// (PostRecvFrom). A posted descriptor only names memory; Get is called
// once, when a message is accepted into it, and the buffer it returns
// rides the completion as WC.Buf. A descriptor nothing lands in never
// calls Get, so a posted-but-idle receive costs no host memory.
type RecvSource interface{ Get() []byte }

// recvWQE is a pre-posted receive descriptor: it carries its buffer
// (PostRecv), or the source that commits one at landing (PostRecvFrom).
type recvWQE struct {
	wrid uint64
	buf  []byte
	src  RecvSource
}

// recvQueue is the FIFO of posted receive descriptors behind a QP or an
// SRQ: the one ring (store.Fifo), sized by the most descriptors
// posted at once, not by how many messages passed through, and zeroing
// what it pops so it never pins a buffer past its consumption. The first
// ring is the queue's own array — the usual pre-post depth costs no
// allocation — so a queue that has been posted to must not be copied.
type recvQueue struct {
	q     store.Fifo[recvWQE]
	first [recvQueueMinCap]recvWQE
}

// recvQueueMinCap is the first ring's size: the usual pre-post depth.
const recvQueueMinCap = 8

func (r *recvQueue) post(w recvWQE) {
	if r.q.Cap() == 0 {
		r.q.Seed(r.first[:])
	}
	r.q.Push(w)
}

func (r *recvQueue) posted() int { return r.q.Len() }

func (r *recvQueue) take() (recvWQE, bool) {
	if r.q.Len() == 0 {
		return recvWQE{}, false
	}
	return r.q.Pop(), true
}

package ib

import "ibflow/internal/store"

// RecvSource supplies the host bytes behind a descriptor-only receive
// (PostRecvFrom). A posted descriptor only names memory, as a verbs
// receive's scatter entry only bounds how many bytes may land: BufSize is
// that bound, and GetN(n) is called once, when an n-byte message is
// accepted into the descriptor, and the buffer it returns (n bytes long)
// rides the completion as WC.Buf. A descriptor nothing lands in never
// calls GetN, so a posted-but-idle receive costs no host memory. A source
// is compared by identity (descriptors posted alike from one source are
// kept as one run), so its dynamic type must be comparable — a pointer.
type RecvSource interface {
	BufSize() int
	GetN(n int) []byte
}

// recvWQE is a pre-posted receive descriptor: it carries its buffer
// (PostRecv), or the source that commits one at landing (PostRecvFrom).
type recvWQE struct {
	wrid uint64
	buf  []byte
	src  RecvSource
}

// recvRun is count consecutive descriptors posted alike. A descriptor-only
// post with the wrid and source of the tail run extends it; a post that
// carries its buffer is always a run of one.
type recvRun struct {
	recvWQE
	count int
}

// recvQueue is the FIFO of posted receive descriptors behind a QP or an
// SRQ, kept as runs: the one ring (store.Fifo) holds a run per change of
// (wrid, source) and n counts the descriptors, so a queue whose posts are
// all alike — every post the channel device makes — is one run however
// deep, and its first ring, the queue's own one-run array, is all it ever
// needs. The ring zeroes what it pops, so it never pins a buffer past its
// consumption; a queue that has been posted to must not be copied.
type recvQueue struct {
	q     store.Fifo[recvRun]
	first [1]recvRun
	n     int
}

func (r *recvQueue) post(w recvWQE) {
	r.n++
	if l := r.q.Len(); l > 0 && w.src != nil {
		if tail := r.q.At(l - 1); tail.src == w.src && tail.wrid == w.wrid {
			tail.count++
			return
		}
	}
	if r.q.Cap() == 0 {
		r.q.Seed(r.first[:])
	}
	r.q.Push(recvRun{recvWQE: w, count: 1})
}

func (r *recvQueue) posted() int { return r.n }

func (r *recvQueue) take() (recvWQE, bool) {
	if r.n == 0 {
		return recvWQE{}, false
	}
	r.n--
	if head := r.q.At(0); head.count > 1 {
		head.count--
		return head.recvWQE, true
	}
	return r.q.Pop().recvWQE, true
}

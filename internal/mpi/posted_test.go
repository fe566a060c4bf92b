package mpi

import (
	"slices"
	"testing"
)

// postedRank is a rank with no device and an empty unexpected queue:
// enough for Irecv to post and for findPosted to match.
func postedRank() (*Rank, *Comm) {
	r := &Rank{world: &World{}}
	return r, &Comm{r: r}
}

// postedTags walks r's posted queue and returns the tags in it, in
// order, failing if the tail pointer is not the last request or a link
// runs past it.
func postedTags(t *testing.T, r *Rank) []int32 {
	t.Helper()
	var tags []int32
	var last *Request
	for q := r.posted; q != nil; q = q.next {
		tags = append(tags, q.tag)
		last = q
	}
	if r.postedTail != last {
		t.Fatalf("posted tail is not the queue's last request (queue %v)", tags)
	}
	return tags
}

// A match unlinks the request wherever it sits in the posted queue —
// head, middle or tail — keeps the others in post order, and leaves the
// unlinked request pointing at nothing.
func TestPostedQueueUnlinks(t *testing.T) {
	for _, tc := range []struct {
		name string
		tag  int
		rest []int32
	}{
		{"head", 0, []int32{1, 2}},
		{"middle", 1, []int32{0, 2}},
		{"tail", 2, []int32{0, 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r, c := postedRank()
			for tag := range 3 {
				c.Irecv(1, tag, nil)
			}
			q := r.findPosted(1, tc.tag, 0)
			if q == nil || q.tag != int32(tc.tag) {
				t.Fatalf("findPosted(1, %d) = %v, want the receive with that tag", tc.tag, q)
			}
			if q.next != nil {
				t.Error("the unlinked request still points into the queue")
			}
			if got := postedTags(t, r); !slices.Equal(got, tc.rest) {
				t.Errorf("queue after unlinking tag %d is %v, want %v", tc.tag, got, tc.rest)
			}
			if r.findPosted(1, tc.tag, 0) != nil {
				t.Errorf("tag %d matched twice", tc.tag)
			}
		})
	}
	t.Run("only", func(t *testing.T) {
		r, c := postedRank()
		c.Irecv(1, 0, nil)
		if r.findPosted(1, 0, 0) == nil || r.posted != nil || r.postedTail != nil {
			t.Error("unlinking the only receive did not empty the queue")
		}
	})
}

// The tail pointer follows an unlinked tail, so the next Irecv appends
// after the request that is now last, not after the unlinked one.
func TestPostedQueueIrecvAfterTailUnlink(t *testing.T) {
	r, c := postedRank()
	c.Irecv(1, 0, nil)
	c.Irecv(1, 1, nil)
	if r.findPosted(1, 1, 0) == nil {
		t.Fatal("the tail did not match")
	}
	c.Irecv(1, 2, nil)
	if got := postedTags(t, r); !slices.Equal(got, []int32{0, 2}) {
		t.Fatalf("queue is %v, want [0 2]", got)
	}
	// Unlink everything, then post again: the queue starts over.
	r.findPosted(1, 0, 0)
	r.findPosted(1, 2, 0)
	c.Irecv(1, 3, nil)
	if got := postedTags(t, r); !slices.Equal(got, []int32{3}) {
		t.Errorf("queue after emptying and one Irecv is %v, want [3]", got)
	}
}

// Wildcard receives match in post order like any other: a message takes
// the earliest posted receive it matches, whether that one names the
// source and tag or not, and a receive of another communicator is
// skipped.
func TestPostedQueueWildcardsTakeTheEarliest(t *testing.T) {
	r, c := postedRank()
	other := &Comm{r: r, id: 1}
	other.Irecv(AnySource, AnyTag, nil) // tag -1, communicator 1
	c.Irecv(1, 7, nil)                  // tag 7
	c.Irecv(AnySource, AnyTag, nil)     // tag -1
	c.Irecv(2, AnyTag, nil)             // tag -1
	c.Irecv(AnySource, 9, nil)          // tag 9
	for _, tc := range []struct {
		src, tag int
		want     *Request
	}{
		{1, 7, r.posted.next},                // the named receive, posted before the wildcard
		{1, 7, r.posted.next.next},           // now the full wildcard
		{2, 9, r.posted.next.next.next},      // (2, AnyTag), posted before (AnySource, 9)
		{3, 9, r.posted.next.next.next.next}, // (AnySource, 9)
	} {
		if got := r.findPosted(tc.src, tc.tag, 0); got != tc.want {
			t.Fatalf("message (%d, %d) matched %+v, want %+v", tc.src, tc.tag, got, tc.want)
		}
	}
	if r.findPosted(4, 4, 0) != nil {
		t.Error("communicator 0's message matched communicator 1's receive")
	}
	if got := postedTags(t, r); !slices.Equal(got, []int32{AnyTag}) || r.posted.comm != 1 {
		t.Errorf("queue is %v, want communicator 1's wildcard alone", got)
	}
}

// Posting and matching receives allocate nothing: the queue is threaded
// through the requests, so 64 receives on existing requests, matched in
// an order that unlinks at the head, the tail and between, take no
// memory of their own.
func TestPostedQueueAllocatesNothing(t *testing.T) {
	const n = 64
	r, _ := postedRank()
	reqs := make([]Request, n)
	for i := range reqs {
		reqs[i].src, reqs[i].tag = 1, int32(i)
	}
	order := []int{n / 2} // one from between, then head, tail, head, ...
	for i := range n / 2 {
		if order = append(order, i); n-1-i != n/2 {
			order = append(order, n-1-i)
		}
	}
	allocs := testing.AllocsPerRun(20, func() {
		for i := range reqs {
			r.post(&reqs[i])
		}
		for _, tag := range order {
			if r.findPosted(1, tag, 0) != &reqs[tag] {
				t.Fatalf("tag %d did not match its receive", tag)
			}
		}
	})
	if allocs != 0 {
		t.Errorf("posting and matching %d receives allocates %.1f objects, want 0", n, allocs)
	}
	if r.posted != nil || r.postedTail != nil {
		t.Error("the queue is not empty after every receive matched")
	}
}

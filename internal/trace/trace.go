// Package trace records per-rank protocol events on the virtual timeline:
// what the channel device sent, what starved, when the dynamic scheme
// grew, and where the transport took RNR NAKs. A Buffer is attached
// through the device/fabric configuration; recording is allocation-free
// after warm-up (a fixed ring) so it can stay on during experiments.
package trace

import (
	"fmt"
	"io"
	"sort"

	"ibflow/internal/sim"
)

// Kind classifies a traced event.
type Kind uint8

// Traced event kinds.
const (
	SendEager Kind = iota + 1
	SendRTS
	SendCTS
	SendFin
	SendECM
	SendRDMAData
	Recv
	Demoted
	Backlogged
	Drained
	Grew
	RNRNak
	Retransmit
	FaultDelay
	LinkOutage
	ECMDropped
	ECMDuplicated
	RetryExhausted
	Reissued
	PoolLimit
	PoolGrew
	// Ring-channel kinds (core.KindRDMA).
	SendRingSync
	SendRDMARead
	kindEnd // one past the last kind; the name test loops up to it
)

var kindNames = map[Kind]string{
	SendEager:      "send-eager",
	SendRTS:        "send-rts",
	SendCTS:        "send-cts",
	SendFin:        "send-fin",
	SendECM:        "send-ecm",
	SendRDMAData:   "rdma-data",
	Recv:           "recv",
	Demoted:        "demoted",
	Backlogged:     "backlogged",
	Drained:        "drained",
	Grew:           "grew",
	RNRNak:         "rnr-nak",
	Retransmit:     "retransmit",
	FaultDelay:     "fault-delay",
	LinkOutage:     "link-outage",
	ECMDropped:     "ecm-dropped",
	ECMDuplicated:  "ecm-duplicated",
	RetryExhausted: "retry-exhausted",
	Reissued:       "reissued",
	PoolLimit:      "pool-limit",
	PoolGrew:       "pool-grew",
	SendRingSync:   "send-ringsync",
	SendRDMARead:   "rdma-read",
}

func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Event is one timeline record.
type Event struct {
	T    sim.Time
	Rank int
	Peer int
	Kind Kind
	Arg  int64 // kind-specific: bytes, credits, new pre-post count, ...
}

func (e Event) String() string {
	return fmt.Sprintf("%-12v rank %d -> %d  %-12v %d", e.T, e.Rank, e.Peer, e.Kind, e.Arg)
}

// Buffer is a fixed-capacity ring of events. The zero value is unusable;
// create with NewBuffer. It is safe for use from the (single-threaded)
// simulation only.
type Buffer struct {
	ring    []Event
	next    int
	total   uint64
	wrapped bool
}

// NewBuffer creates a ring holding the most recent cap events.
func NewBuffer(capacity int) *Buffer {
	if capacity <= 0 {
		panic("trace: non-positive capacity")
	}
	return &Buffer{ring: make([]Event, capacity)}
}

// Add records an event.
func (b *Buffer) Add(e Event) {
	b.ring[b.next] = e
	b.next++
	b.total++
	if b.next == len(b.ring) {
		b.next = 0
		b.wrapped = true
	}
}

// Total reports how many events were ever recorded.
func (b *Buffer) Total() uint64 { return b.total }

// Events returns the retained events, oldest first.
func (b *Buffer) Events() []Event {
	if !b.wrapped {
		out := make([]Event, b.next)
		copy(out, b.ring[:b.next])
		return out
	}
	out := make([]Event, 0, len(b.ring))
	out = append(out, b.ring[b.next:]...)
	out = append(out, b.ring[:b.next]...)
	return out
}

// Dump writes the last n retained events (all if n <= 0) to w.
func (b *Buffer) Dump(w io.Writer, n int) {
	evs := b.Events()
	if n > 0 && len(evs) > n {
		evs = evs[len(evs)-n:]
	}
	for _, e := range evs {
		fmt.Fprintln(w, e)
	}
}

// Summary counts retained events per kind, sorted by kind name.
func (b *Buffer) Summary() []struct {
	Kind  Kind
	Count int
} {
	counts := map[Kind]int{}
	for _, e := range b.Events() {
		counts[e.Kind]++
	}
	out := make([]struct {
		Kind  Kind
		Count int
	}, 0, len(counts))
	for k, c := range counts {
		out = append(out, struct {
			Kind  Kind
			Count int
		}{k, c})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Kind.String() < out[j].Kind.String() })
	return out
}

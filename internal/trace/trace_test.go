package trace

import (
	"strings"
	"testing"
	"unsafe"

	"ibflow/internal/sim"
)

func TestRingRetainsMostRecent(t *testing.T) {
	b := NewBuffer(3)
	for i := 0; i < 5; i++ {
		b.Add(Event{T: sim.Time(i), Rank: i, Kind: SendEager})
	}
	if b.Total() != 5 {
		t.Errorf("Total = %d", b.Total())
	}
	evs := b.Events()
	if len(evs) != 3 {
		t.Fatalf("retained %d", len(evs))
	}
	for i, e := range evs {
		if e.Rank != i+2 {
			t.Errorf("slot %d rank %d, want %d (oldest-first order)", i, e.Rank, i+2)
		}
	}
}

func TestEventsBeforeWrap(t *testing.T) {
	b := NewBuffer(10)
	b.Add(Event{Rank: 1, Kind: Demoted})
	b.Add(Event{Rank: 2, Kind: Grew})
	evs := b.Events()
	if len(evs) != 2 || evs[0].Rank != 1 || evs[1].Rank != 2 {
		t.Errorf("events = %v", evs)
	}
}

func TestDumpAndSummary(t *testing.T) {
	b := NewBuffer(16)
	b.Add(Event{T: 1000, Rank: 0, Peer: 1, Kind: SendEager, Arg: 52})
	b.Add(Event{T: 2000, Rank: 1, Peer: 0, Kind: Recv, Arg: 1})
	b.Add(Event{T: 3000, Rank: 0, Peer: 1, Kind: SendEager, Arg: 52})
	var sb strings.Builder
	b.Dump(&sb, 2)
	out := sb.String()
	if strings.Count(out, "\n") != 2 {
		t.Errorf("Dump(2) lines:\n%s", out)
	}
	if !strings.Contains(out, "send-eager") || !strings.Contains(out, "recv") {
		t.Errorf("missing kinds in:\n%s", out)
	}
	sum := b.Summary()
	found := false
	for _, s := range sum {
		if s.Kind == SendEager && s.Count == 2 {
			found = true
		}
	}
	if !found {
		t.Errorf("summary = %v", sum)
	}
}

func TestKindStrings(t *testing.T) {
	for k := SendEager; k < kindEnd; k++ {
		if strings.HasPrefix(k.String(), "Kind(") {
			t.Errorf("kind %d has no name", k)
		}
	}
	if !strings.HasPrefix(Kind(200).String(), "Kind(") {
		t.Error("unknown kind should fall back")
	}
}

// Events are retained in insertion order, which on the single-threaded
// simulation timeline is non-decreasing virtual time. The buffer must not
// reorder them even across a ring wrap.
func TestEventOrderingPreserved(t *testing.T) {
	b := NewBuffer(4)
	times := []sim.Time{100, 100, 250, 250, 300, 900}
	for i, ts := range times {
		b.Add(Event{T: ts, Rank: i, Kind: SendECM})
	}
	evs := b.Events()
	if len(evs) != 4 {
		t.Fatalf("retained %d events, want 4", len(evs))
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].T < evs[i-1].T {
			t.Errorf("events out of order: %v before %v", evs[i-1], evs[i])
		}
		if evs[i].Rank != evs[i-1].Rank+1 {
			t.Errorf("insertion order lost: rank %d follows %d", evs[i].Rank, evs[i-1].Rank)
		}
	}
	if evs[0].Rank != 2 {
		t.Errorf("oldest retained rank = %d, want 2", evs[0].Rank)
	}
}

// Recording must stay allocation-free after the ring is built, so tracing
// can remain enabled during experiments without perturbing benchmarks.
func TestAddDoesNotAllocate(t *testing.T) {
	b := NewBuffer(64)
	e := Event{T: 1000, Rank: 1, Peer: 2, Kind: SendEager, Arg: 52}
	allocs := testing.AllocsPerRun(1000, func() {
		b.Add(e)
	})
	if allocs != 0 {
		t.Errorf("Add allocates %v times per call, want 0", allocs)
	}
}

func TestNewBufferValidates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic on zero capacity")
		}
	}()
	NewBuffer(0)
}

// An event names its message in Kind's padding: it stays 40 B, and its
// text shows the number only when there is one.
func TestEventNamesItsMessage(t *testing.T) {
	if got := unsafe.Sizeof(Event{}); got != 40 {
		t.Errorf("unsafe.Sizeof(Event{}) = %d, want 40", got)
	}
	e := Event{T: 5, Rank: 0, Peer: 1, Kind: SendEager, Arg: 56}
	if s := e.String(); strings.Contains(s, "#") {
		t.Errorf("event about no message prints %q", s)
	}
	e.Seq = 7
	if s := e.String(); !strings.HasSuffix(s, "send-eager   56  #7") {
		t.Errorf("event about message 7 prints %q", s)
	}
}

package bench

import (
	"strings"
	"testing"
)

// TestConnScalingSharedSubLinear is the tentpole's acceptance shape: as
// the peer count grows, the per-connection schemes' buffer memory grows
// linearly while the shared pool stays bounded by its cap — sub-linear
// by construction, and measurably so.
func TestConnScalingSharedSubLinear(t *testing.T) {
	doc := ConnScaling(quick)
	if len(doc.Ranks) < 3 {
		t.Fatalf("quick sweep has %d rank counts, want >= 3", len(doc.Ranks))
	}
	byScheme := map[string]ScalingSeries{}
	for _, s := range doc.Series {
		byScheme[s.Scheme] = s
	}
	for _, name := range []string{"hardware", "static", "dynamic", "shared"} {
		s, ok := byScheme[name]
		if !ok {
			t.Fatalf("missing scheme %q in %v", name, doc.Series)
		}
		if len(s.BufBytesHWM) != len(doc.Ranks) {
			t.Fatalf("%s: %d memory points for %d rank counts", name, len(s.BufBytesHWM), len(doc.Ranks))
		}
	}
	first, last := 0, len(doc.Ranks)-1
	peerGrowth := float64(doc.Ranks[last]-1) / float64(doc.Ranks[first]-1)

	// Static provisions per connection: memory tracks the peer count
	// exactly (HWM = prepost * bufsize * peers).
	st := byScheme["static"]
	if got := float64(st.BufBytesHWM[last]) / float64(st.BufBytesHWM[first]); got != peerGrowth {
		t.Errorf("static memory grew %.1fx over %.1fx peers, want linear", got, peerGrowth)
	}
	// Shared provisions per rank: clearly sub-linear, and bounded by the
	// configured pool cap no matter the fan-in.
	sh := byScheme["shared"]
	shGrowth := float64(sh.BufBytesHWM[last]) / float64(sh.BufBytesHWM[first])
	if shGrowth >= peerGrowth/2 {
		t.Errorf("shared memory grew %.1fx over %.1fx peers, want sub-linear", shGrowth, peerGrowth)
	}
	capBytes := doc.PoolMax * 2048 // chdev.DefaultConfig().BufSize
	for i, b := range sh.BufBytesHWM {
		if b > capBytes {
			t.Errorf("shared HWM at %d ranks = %d bytes, beyond pool cap %d", doc.Ranks[i], b, capBytes)
		}
	}
	// At the largest fan-in the shared pool must be under stress
	// (RNR NAKs and limit events both nonzero) yet cheaper than static.
	if sh.RNRNaks[last] == 0 {
		t.Error("shared scheme saw no RNR NAKs at peak fan-in (storm too gentle to mean anything)")
	}
	if sh.LimitEvents[last] == 0 {
		t.Error("shared scheme fired no SRQ limit events at peak fan-in")
	}
	if sh.BufBytesHWM[last] >= st.BufBytesHWM[last] {
		t.Errorf("shared HWM %d not below static %d at peak fan-in",
			sh.BufBytesHWM[last], st.BufBytesHWM[last])
	}
	// User-level schemes never lean on the HCA backstop.
	for _, name := range []string{"static", "dynamic"} {
		for i, v := range byScheme[name].RNRNaks {
			if v != 0 {
				t.Errorf("%s: %d RNR NAKs at %d ranks, want 0", name, v, doc.Ranks[i])
			}
		}
	}
}

// TestRendezvousStormOnTwoRails runs the storm at rendezvous size on the
// quick sweep's 2-rail fat tree under every scheme: each QP carries 16 KB
// transfers with small control messages (CTS, FIN) posted right behind
// them. A QP whose messages could take different rails would land a FIN
// ahead of its data, drop it as out of order, and hang.
func TestRendezvousStormOnTwoRails(t *testing.T) {
	const ranks, msgs, size, fanout = 64, 6, 16 << 10, 24
	doc := smokeDoc(fanout, 512)
	for _, fc := range doc.Schemes() {
		s := doc.spec(fc, ranks)
		if err := newWorld(s, nil).Run(scalingStorm(msgs, size, fanout)); err != nil {
			t.Errorf("%v: %v", s, err)
		}
	}
}

func TestConnScalingTableShape(t *testing.T) {
	doc := ConnScaling(quick)
	tab := ConnScalingTable(doc)
	if len(tab.Rows) != len(doc.Ranks) {
		t.Fatalf("table rows = %d, want %d", len(tab.Rows), len(doc.Ranks))
	}
	for _, r := range tab.Rows {
		if len(r) != len(tab.Columns) {
			t.Fatalf("row %v has %d cells for %d columns", r, len(r), len(tab.Columns))
		}
	}
	if !strings.Contains(tab.Columns[4], "shared") {
		t.Errorf("columns = %v, want shared in position 4", tab.Columns)
	}
}

package bench

import "testing"

// TestEndpointContentionQuick sanity-checks the quick contention sweep:
// full grid shape, the selection counters prove multiplexing actually
// happened above one endpoint (and, per the byte-identity contract,
// never at one), the per-endpoint occupancy high-water mark relaxes as
// the set absorbs the burst, and the table renders one full row per
// (scheme, endpoints) cell.
func TestEndpointContentionQuick(t *testing.T) {
	doc := EndpointContention(quick)
	if len(doc.Series) != 5 {
		t.Fatalf("%d series, want 5 schemes", len(doc.Series))
	}
	ne := len(doc.Endpoints)
	if ne != 4 || doc.Endpoints[0] != 1 || doc.Endpoints[ne-1] != 8 {
		t.Fatalf("endpoint sweep = %v, want {1,2,4,8}", doc.Endpoints)
	}
	tab := EndpointContentionTable(doc)
	if len(tab.Rows) != 5*ne {
		t.Fatalf("table rows = %d, want 5 schemes x %d set sizes", len(tab.Rows), ne)
	}
	for _, r := range tab.Rows {
		if len(r) != len(tab.Columns) {
			t.Fatalf("row %v has %d cells for %d columns", r, len(r), len(tab.Columns))
		}
	}
	senders := doc.Ranks - 1
	msgs := uint64(senders * doc.Threads * doc.Bursts * doc.MsgsPerBurst)
	for _, s := range doc.Series {
		for _, n := range []int{len(s.TimeMS), len(s.Backlogged), len(s.RNRNaks),
			len(s.OccupancyHWM), len(s.StickySels), len(s.BufBytesHWM)} {
			if n != ne {
				t.Fatalf("%s: ragged series", s.Scheme)
			}
		}
		for i, eps := range doc.Endpoints {
			if s.TimeMS[i] <= 0 {
				t.Errorf("%s x%d: non-positive makespan", s.Scheme, eps)
			}
			if eps == 1 && s.StickySels[i] != 0 {
				t.Errorf("%s x1: %d sticky selections on single connections, want 0 (selection must short-circuit)",
					s.Scheme, s.StickySels[i])
			}
			if eps > 1 && s.StickySels[i] != msgs {
				t.Errorf("%s x%d: %d sticky selections, want %d (every send selects)",
					s.Scheme, eps, s.StickySels[i], msgs)
			}
			if s.OccupancyHWM[i] <= 0 {
				t.Errorf("%s x%d: zero occupancy HWM under an incast", s.Scheme, eps)
			}
		}
		if s.OccupancyHWM[ne-1] > s.OccupancyHWM[0] {
			t.Errorf("%s: worst-endpoint occupancy grew with the set: %v", s.Scheme, s.OccupancyHWM)
		}
	}
}

// TestEndpointSerialParallelIdentical pins the runner contract for the
// contention document: as fcbench emits it, it must be byte-identical
// whatever the worker count.
func TestEndpointSerialParallelIdentical(t *testing.T) {
	sweep := func(workers int) string {
		return docJSON(t, EndpointContention(Opts{Quick: true, Parallel: workers}))
	}
	serial := sweep(1)
	for _, workers := range []int{2, 4} {
		if got := sweep(workers); got != serial {
			t.Errorf("workers=%d: endpoint doc diverges from serial sweep:\n%s\nvs\n%s",
				workers, got, serial)
		}
	}
}

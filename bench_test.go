package ibflow

import (
	"testing"

	"ibflow/internal/bench"
)

// The benchmarks below regenerate every table and figure of the paper's
// evaluation (see DESIGN.md for the per-experiment index). They run the
// quick variant (NAS class W, reduced sweep points); `fcbench -test
// paper` runs the full class A suite and prints the tables.

var quick = bench.Opts{Quick: true}

func reportTable(b *testing.B, t bench.Table) {
	b.Helper()
	b.Logf("\n%s", t.String())
}

func BenchmarkFigure2Latency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := bench.Figure2(quick)
		if i == 0 {
			reportTable(b, t)
		}
	}
	b.ReportMetric(Latency(Static(100), 4, 200), "us/4B-oneway")
}

func BenchmarkFigure3BandwidthSmallPre100Blocking(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := bench.Figure3(quick)
		if i == 0 {
			reportTable(b, t)
		}
	}
}

func BenchmarkFigure4BandwidthSmallPre100Nonblocking(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := bench.Figure4(quick)
		if i == 0 {
			reportTable(b, t)
		}
	}
}

func BenchmarkFigure5BandwidthSmallPre10Blocking(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := bench.Figure5(quick)
		if i == 0 {
			reportTable(b, t)
		}
	}
}

func BenchmarkFigure6BandwidthSmallPre10Nonblocking(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := bench.Figure6(quick)
		if i == 0 {
			reportTable(b, t)
		}
	}
}

func BenchmarkFigure7BandwidthLargePre10Blocking(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := bench.Figure7(quick)
		if i == 0 {
			reportTable(b, t)
		}
	}
}

func BenchmarkFigure8BandwidthLargePre10Nonblocking(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := bench.Figure8(quick)
		if i == 0 {
			reportTable(b, t)
		}
	}
}

func BenchmarkFigure9NASPrepost100(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, _ := bench.Figure9(quick)
		if i == 0 {
			reportTable(b, t)
		}
	}
}

func BenchmarkFigure10NASDegradation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, _ := bench.Figure10(quick)
		if i == 0 {
			reportTable(b, t)
		}
	}
}

func BenchmarkTable1ExplicitCreditMessages(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := bench.Table1(quick)
		if i == 0 {
			reportTable(b, t)
		}
	}
}

func BenchmarkTable2MaxPostedBuffers(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := bench.Table2(quick)
		if i == 0 {
			reportTable(b, t)
		}
	}
}

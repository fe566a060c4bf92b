package nas

import (
	"strings"
	"testing"

	"ibflow/internal/core"
	"ibflow/internal/mpi"
)

func runApp(t *testing.T, name string, class Class, n int, fc core.Params) *mpi.World {
	t.Helper()
	app, err := Get(name)
	if err != nil {
		t.Fatal(err)
	}
	if !app.ProcsOK(n) {
		t.Fatalf("%s rejects %d procs", name, n)
	}
	w := mpi.NewWorld(n, mpi.DefaultOptions(fc))
	var failures []error
	if err := w.Run(func(c *mpi.Comm) {
		if verr := app.Run(c, class); verr != nil {
			failures = append(failures, verr)
		}
	}); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	for _, f := range failures {
		t.Errorf("%s verification: %v", name, f)
	}
	return w
}

func TestHelpers(t *testing.T) {
	if !powerOfTwo(8) || powerOfTwo(6) || powerOfTwo(0) {
		t.Error("powerOfTwo wrong")
	}
	if !square(16) || square(8) {
		t.Error("square wrong")
	}
	px, py := grid2(8)
	if px*py != 8 || px < py {
		t.Errorf("grid2(8) = %dx%d", px, py)
	}
	if px2, py2 := grid2(16); px2 != 4 || py2 != 4 {
		t.Errorf("grid2(16) = %dx%d", px2, py2)
	}
	if c, err := ParseClass("A"); err != nil || c != ClassA {
		t.Error("ParseClass A")
	}
	if _, err := ParseClass("X"); err == nil {
		t.Error("ParseClass should reject X")
	}
	if ClassS.String() != "S" || ClassW.String() != "W" || ClassA.String() != "A" {
		t.Error("class strings")
	}
}

func TestPrandReproducible(t *testing.T) {
	a, b := newPrand(7), newPrand(7)
	for i := 0; i < 50; i++ {
		if a.next() != b.next() {
			t.Fatal("prand not reproducible")
		}
	}
	r := newPrand(9)
	for i := 0; i < 1000; i++ {
		if f := r.float64n(); f < 0 || f >= 1 {
			t.Fatalf("float64n out of range: %v", f)
		}
		if v := r.intn(37); v < 0 || v >= 37 {
			t.Fatalf("intn out of range: %v", v)
		}
	}
}

func TestFFTRoundTripSerial(t *testing.T) {
	const n = 64
	a := make([]float64, 2*n)
	rng := newPrand(3)
	orig := make([]float64, 2*n)
	for i := range a {
		a[i] = rng.float64n() - 0.5
		orig[i] = a[i]
	}
	fft(a, twiddles(n, -1))
	fft(a, twiddles(n, +1))
	for i := range a {
		if diff := a[i]/float64(n) - orig[i]; diff > 1e-10 || diff < -1e-10 {
			t.Fatalf("fft round trip error %g at %d", diff, i)
		}
	}
}

// Every kernel, class S, 4 ranks (BT/SP use 4 = 2x2), dynamic scheme.
func TestAllKernelsClassSVerify(t *testing.T) {
	for _, app := range Apps() {
		app := app
		t.Run(app.Name, func(t *testing.T) {
			runApp(t, app.Name, ClassS, 4, core.Dynamic(1, 100))
		})
	}
}

// Every kernel verifies under all three schemes even at prepost 1.
func TestKernelsVerifyUnderAllSchemesPrepost1(t *testing.T) {
	schemes := []core.Params{core.Hardware(1), core.Static(1), core.Dynamic(1, 100)}
	for _, app := range Apps() {
		for _, fc := range schemes {
			app, fc := app, fc
			t.Run(app.Name+"-"+fc.Kind.String(), func(t *testing.T) {
				runApp(t, app.Name, ClassS, 4, fc)
			})
		}
	}
}

// The paper's configuration: 8 ranks (16 for BT/SP), class W for speed.
func TestKernelsPaperGeometryClassW(t *testing.T) {
	if testing.Short() {
		t.Skip("class W geometry run")
	}
	for _, app := range Apps() {
		app := app
		n := 8
		if app.Name == "BT" || app.Name == "SP" {
			n = 16
		}
		t.Run(app.Name, func(t *testing.T) {
			runApp(t, app.Name, ClassW, n, core.Static(100))
		})
	}
}

func TestLUGeneratesPipelineFloodStats(t *testing.T) {
	// LU under the dynamic scheme must show serious buffer growth (the
	// wavefront source streams up to nz planes ahead) — the Table 2
	// phenomenon.
	w := runApp(t, "LU", ClassW, 8, core.Dynamic(1, 100))
	st := w.Stats()
	if st.MaxPosted < 8 {
		t.Errorf("LU dynamic MaxPosted = %d, want substantial growth", st.MaxPosted)
	}
	// And under static it must generate explicit credit messages (the
	// Table 1 phenomenon: LU's pattern is asymmetric).
	w2 := runApp(t, "LU", ClassW, 8, core.Static(100))
	if st2 := w2.Stats(); st2.ECMsSent == 0 {
		t.Error("LU static sent no explicit credit messages")
	}
}

func TestCGIsGentleOnBuffers(t *testing.T) {
	w := runApp(t, "CG", ClassS, 4, core.Dynamic(1, 100))
	st := w.Stats()
	if st.MaxPosted > 20 {
		t.Errorf("CG MaxPosted = %d; the paper found ~3", st.MaxPosted)
	}
}

// IS verification must catch a lost key: every rank's keys are sorted and
// globally ordered, but one rank dropped its last one.
func TestVerifyISCatchesLostKey(t *testing.T) {
	const ranks, perRank = 4, 10
	for _, drop := range []bool{false, true} {
		errs := make([]error, ranks)
		w := mpi.NewWorld(ranks, mpi.DefaultOptions(core.Static(4)))
		if err := w.Run(func(c *mpi.Comm) {
			keys := make([]int32, perRank)
			for i := range keys {
				keys[i] = int32(c.Rank()*perRank + i)
			}
			if drop && c.Rank() == 1 {
				keys = keys[:perRank-1]
			}
			errs[c.Rank()] = verifyIS(c, keys, ranks*perRank)
		}); err != nil {
			t.Fatal(err)
		}
		for r, err := range errs {
			if drop && (err == nil || !strings.Contains(err.Error(), "not conserved")) {
				t.Errorf("rank %d: lost key gave %v, want a conservation failure", r, err)
			}
			if !drop && err != nil {
				t.Errorf("rank %d: intact keys failed: %v", r, err)
			}
		}
	}
}

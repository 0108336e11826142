package mkl

import (
	"math/rand"
	"testing"

	"spray/internal/num"
	"spray/internal/par"
	"spray/internal/sparse"
)

// randomCSR places nnz entries at uniformly random positions (duplicates
// folded), the irregular pattern the inspector/executor must handle.
func randomCSR[T num.Float](rows, cols, nnz int, seed int64) *sparse.CSR[T] {
	rng := rand.New(rand.NewSource(seed))
	c := sparse.NewCOO[T](rows, cols)
	for e := 0; e < nnz; e++ {
		c.Add(rng.Intn(rows), rng.Intn(cols), T(rng.Float64()+0.01))
	}
	return sparse.FromCOO(c)
}

func setup(seed int64, rows, cols, nnz int) (*sparse.CSR[float64], []float64, []float64) {
	rng := rand.New(rand.NewSource(seed))
	a := randomCSR[float64](rows, cols, nnz, seed)
	x := make([]float64, rows)
	for i := range x {
		x[i] = float64(rng.Intn(7) - 3)
	}
	want := make([]float64, cols)
	a.TMulVecSeq(x, want)
	return a, x, want
}

func TestLegacyMatchesReference(t *testing.T) {
	a, x, want := setup(1, 120, 90, 900)
	for _, threads := range []int{1, 2, 3, 5, 8} {
		team := par.NewTeam(threads)
		y := make([]float64, a.Cols)
		extra := LegacyTMulVec(team, a, x, y)
		team.Close()
		if d := num.MaxAbsDiff(y, want); d > 1e-9 {
			t.Errorf("threads=%d: diff %v", threads, d)
		}
		if wantB := int64(threads * a.Cols * 8); extra != wantB {
			t.Errorf("threads=%d: extra=%d, want %d", threads, extra, wantB)
		}
	}
}

func TestIEWithoutHintsMatchesReference(t *testing.T) {
	a, x, want := setup(2, 150, 110, 1200)
	for _, threads := range []int{1, 2, 4, 7} {
		team := par.NewTeam(threads)
		h := NewHandle(a)
		h.Optimize() // no hints: cheap inspection
		if h.ExtraBytes() != 0 {
			t.Errorf("unhinted inspection allocated %d bytes", h.ExtraBytes())
		}
		y := make([]float64, a.Cols)
		extra := h.ExecuteTMulVec(team, x, y)
		team.Close()
		if d := num.MaxAbsDiff(y, want); d > 1e-9 {
			t.Errorf("threads=%d: diff %v", threads, d)
		}
		if extra <= 0 {
			t.Errorf("threads=%d: unhinted executor reported no per-call memory", threads)
		}
	}
}

func TestIEWithHintsMatchesReference(t *testing.T) {
	a, x, want := setup(3, 140, 100, 1000)
	team := par.NewTeam(4)
	defer team.Close()
	h := NewHandle(a)
	h.SetHint(Hint{Transpose: true, Calls: 100})
	h.Optimize()
	if !h.Optimized() {
		t.Error("Optimized() false after Optimize")
	}
	if h.ExtraBytes() <= 0 {
		t.Error("hinted inspection reported no memory")
	}
	// Roughly a full matrix copy: within 2x of the original's footprint.
	if h.ExtraBytes() > 2*a.Bytes() {
		t.Errorf("inspection memory %d implausibly large vs matrix %d", h.ExtraBytes(), a.Bytes())
	}
	y := make([]float64, a.Cols)
	if extra := h.ExecuteTMulVec(team, x, y); extra != 0 {
		t.Errorf("hinted executor reported per-call memory %d", extra)
	}
	if d := num.MaxAbsDiff(y, want); d > 1e-12 {
		t.Errorf("diff %v", d)
	}
}

func TestIEExecuteRepeatedAccumulates(t *testing.T) {
	a, x, want1 := setup(4, 80, 70, 500)
	want := make([]float64, a.Cols)
	for i := range want {
		want[i] = 3 * want1[i]
	}
	team := par.NewTeam(3)
	defer team.Close()
	h := NewHandle(a)
	h.SetHint(Hint{Transpose: true})
	h.Optimize()
	y := make([]float64, a.Cols)
	for r := 0; r < 3; r++ {
		h.ExecuteTMulVec(team, x, y)
	}
	if d := num.MaxAbsDiff(y, want); d > 1e-12 {
		t.Errorf("repeated execute diff %v", d)
	}
}

func TestTreeCombineOddTeamSizes(t *testing.T) {
	// The pairwise combine must be correct for non-power-of-two teams.
	a, x, want := setup(5, 60, 50, 400)
	for _, threads := range []int{3, 5, 6, 7} {
		team := par.NewTeam(threads)
		h := NewHandle(a)
		y := make([]float64, a.Cols)
		h.ExecuteTMulVec(team, x, y) // un-optimized path also exercises tree combine
		team.Close()
		if d := num.MaxAbsDiff(y, want); d > 1e-9 {
			t.Errorf("threads=%d: diff %v", threads, d)
		}
	}
}

func TestDimensionPanics(t *testing.T) {
	a := randomCSR[float64](10, 12, 40, 1)
	team := par.NewTeam(2)
	defer team.Close()
	for name, fn := range map[string]func(){
		"legacy": func() { LegacyTMulVec(team, a, make([]float64, 10), make([]float64, 10)) },
		"ie":     func() { NewHandle(a).ExecuteTMulVec(team, make([]float64, 12), make([]float64, 12)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestFloat32Paths(t *testing.T) {
	a := randomCSR[float32](50, 40, 300, 9)
	rng := rand.New(rand.NewSource(9))
	x := make([]float32, a.Rows)
	for i := range x {
		x[i] = float32(rng.Intn(5))
	}
	want := make([]float32, a.Cols)
	a.TMulVecSeq(x, want)
	team := par.NewTeam(3)
	defer team.Close()

	y1 := make([]float32, a.Cols)
	LegacyTMulVec(team, a, x, y1)
	h := NewHandle(a)
	h.SetHint(Hint{Transpose: true})
	h.Optimize()
	y2 := make([]float32, a.Cols)
	h.ExecuteTMulVec(team, x, y2)
	if d := num.MaxAbsDiff(y1, want); d > 1e-3 {
		t.Errorf("legacy float32 diff %v", d)
	}
	if d := num.MaxAbsDiff(y2, want); d > 1e-3 {
		t.Errorf("ie float32 diff %v", d)
	}
}

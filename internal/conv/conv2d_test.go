package conv

import (
	"math/rand"
	"testing"

	"spray"
	"spray/internal/num"
)

func grid(rows, cols int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	g := make([]float64, rows*cols)
	for i := range g {
		g[i] = float64(rng.Intn(9) - 4)
	}
	return g
}

var cross2D = Stencil2D[float64]{Taps: [][]float64{
	{0, 1, 0},
	{1, -4, 1},
	{0, 1, 0},
}}

func TestStencil2DBackpropMatchesSequential(t *testing.T) {
	const rows, cols = 50, 70
	seed := grid(rows, cols, 1)
	want := make([]float64, rows*cols)
	cross2D.BackpropSeq(seed, want, rows, cols)
	for _, st := range []spray.Strategy{
		spray.Atomic(), spray.BlockCAS(256), spray.Keeper(), spray.Dense(),
		spray.Ordered(),
	} {
		for _, threads := range []int{1, 4} {
			team := spray.NewTeam(threads)
			out := make([]float64, rows*cols)
			cross2D.Backprop(team, st, seed, out, rows, cols)
			team.Close()
			if d := num.MaxAbsDiff(out, want); d != 0 {
				t.Errorf("%s threads=%d: diff %v", st, threads, d)
			}
		}
	}
}

func TestStencil2DAdjointIdentity(t *testing.T) {
	// <Su, v>_interior == <u, Sᵀv> for the linear stencil operator S.
	const rows, cols = 40, 30
	u := grid(rows, cols, 2)
	v := grid(rows, cols, 3)
	su := make([]float64, rows*cols)
	cross2D.Forward(u, su, rows, cols)
	stv := make([]float64, rows*cols)
	cross2D.BackpropSeq(v, stv, rows, cols)
	var lhs, rhs float64
	r := cross2D.Radius()
	for i := r; i < rows-r; i++ {
		for j := r; j < cols-r; j++ {
			lhs += su[i*cols+j] * v[i*cols+j]
		}
	}
	for k := range u {
		rhs += u[k] * stv[k]
	}
	if !num.RelClose(lhs, rhs, 1e-9) {
		t.Errorf("adjoint identity violated: %v vs %v", lhs, rhs)
	}
}

func TestStencil2DFiveByFive(t *testing.T) {
	taps := make([][]float64, 5)
	rng := rand.New(rand.NewSource(4))
	for i := range taps {
		taps[i] = make([]float64, 5)
		for j := range taps[i] {
			taps[i][j] = float64(rng.Intn(5) - 2)
		}
	}
	s := Stencil2D[float64]{Taps: taps}
	const rows, cols = 32, 27
	seed := grid(rows, cols, 5)
	want := make([]float64, rows*cols)
	s.BackpropSeq(seed, want, rows, cols)
	team := spray.NewTeam(3)
	defer team.Close()
	out := make([]float64, rows*cols)
	s.Backprop(team, spray.BlockLock(64), seed, out, rows, cols)
	if d := num.MaxAbsDiff(out, want); d != 0 {
		t.Errorf("5x5 diff %v", d)
	}
}

func TestStencil2DPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"even side": func() {
			Stencil2D[float64]{Taps: [][]float64{{1, 2}, {3, 4}}}.Radius()
		},
		"ragged": func() {
			Stencil2D[float64]{Taps: [][]float64{{1, 2, 3}, {1}, {1, 2, 3}}}.Radius()
		},
		"grid mismatch": func() {
			cross2D.Forward(make([]float64, 10), make([]float64, 12), 3, 4)
		},
		"grid too small": func() {
			cross2D.Forward(make([]float64, 4), make([]float64, 4), 2, 2)
		},
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

package conv

import (
	"math/rand"
	"testing"
	"testing/quick"

	"spray"
	"spray/internal/num"
)

func randSeed(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	s := make([]float64, n)
	for i := range s {
		s[i] = float64(rng.Intn(9) - 4)
	}
	return s
}

func TestBackpropMatchesSequentialAllStrategies(t *testing.T) {
	const n = 3000
	w := Weights3[float64]{WL: 0.25, WC: 0.5, WR: 0.25}
	seed := randSeed(n, 1)
	want := make([]float64, n)
	w.BackpropSeq(seed, want)
	for _, st := range spray.AllStrategies() {
		for _, threads := range []int{1, 4, 7} {
			team := spray.NewTeam(threads)
			out := make([]float64, n)
			w.Backprop(team, st, seed, out)
			team.Close()
			if d := num.MaxAbsDiff(out, want); d != 0 {
				t.Errorf("%s threads=%d: diff %v", st, threads, d)
			}
		}
	}
}

// TestScatterBackpropMatchesSequential drives the back-propagation
// through Scatter in its natural adjoint order — per tile, the
// interleaved triple stream (i-1, wl·s), (i, wc·s), (i+1, wr·s), so every
// interior location arrives three times per batch — and checks exact
// agreement with the sequential sweep (the integer-valued seed makes
// every summation order exact).
func TestScatterBackpropMatchesSequential(t *testing.T) {
	const n = 3000
	w := Weights3[float64]{WL: 0.25, WC: 0.5, WR: 0.25}
	seed := randSeed(n, 4)
	want := make([]float64, n)
	w.BackpropSeq(seed, want)
	for _, st := range []spray.Strategy{
		spray.Atomic(),
		spray.BlockCAS(64),
		spray.Keeper(),
	} {
		for _, threads := range []int{1, 4, 7} {
			team := spray.NewTeam(threads)
			out := make([]float64, n)
			r := spray.New(st, out, threads)
			spray.RunReduction(team, r, 1, n-1, spray.Static(),
				func(acc spray.Accessor[float64], from, to int) {
					var idx [3 * backpropTile]int32
					var vals [3 * backpropTile]float64
					for t0 := from; t0 < to; t0 += backpropTile {
						k := 0
						for i := t0; i < min(t0+backpropTile, to); i++ {
							s := seed[i]
							idx[k], vals[k] = int32(i-1), w.WL*s
							idx[k+1], vals[k+1] = int32(i), w.WC*s
							idx[k+2], vals[k+2] = int32(i+1), w.WR*s
							k += 3
						}
						spray.Bulk(acc).Scatter(idx[:k], vals[:k])
					}
				})
			team.Close()
			if d := num.MaxAbsDiff(out, want); d != 0 {
				t.Errorf("%s threads=%d: diff %v", st, threads, d)
			}
		}
	}
}

// TestBackpropIsAdjointOfForward checks the defining property of
// reverse-mode differentiation: <W u, v> == <u, Wᵀ v> for the linear
// stencil operator W.
func TestBackpropIsAdjointOfForward(t *testing.T) {
	const n = 500
	w := Weights3[float64]{WL: 2, WC: -3, WR: 5}
	u := randSeed(n, 2)
	v := randSeed(n, 3)
	wu := make([]float64, n)
	w.Forward(u, wu)
	wtv := make([]float64, n)
	w.BackpropSeq(v, wtv)
	var lhs, rhs float64
	// Forward writes only the interior, so restrict <Wu, v> there; the
	// adjoint then pairs with u over the full range.
	for i := 1; i < n-1; i++ {
		lhs += wu[i] * v[i]
	}
	for i := 0; i < n; i++ {
		rhs += u[i] * wtv[i]
	}
	if !num.RelClose(lhs, rhs, 1e-9) {
		t.Errorf("adjoint identity violated: %v vs %v", lhs, rhs)
	}
}

func TestStencilAdjointProperty(t *testing.T) {
	f := func(tapsRaw []int8, seedA, seedB int64) bool {
		width := len(tapsRaw)
		if width%2 == 0 {
			width--
		}
		if width < 1 {
			return true
		}
		taps := make([]float64, width)
		for i := range taps {
			taps[i] = float64(tapsRaw[i]) / 8
		}
		s := Stencil[float64]{Taps: taps}
		const n = 200
		u := randSeed(n, seedA)
		v := randSeed(n, seedB)
		su := make([]float64, n)
		s.Forward(u, su)
		stv := make([]float64, n)
		s.BackpropSeq(v, stv)
		var lhs, rhs float64
		r := s.Radius()
		for i := r; i < n-r; i++ {
			lhs += su[i] * v[i]
		}
		for i := 0; i < n; i++ {
			rhs += u[i] * stv[i]
		}
		return num.RelClose(lhs, rhs, 1e-9) || (lhs == 0 && rhs == 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestStencilBackpropParallelMatches(t *testing.T) {
	const n = 2000
	s := Stencil[float64]{Taps: []float64{1, -2, 4, -2, 1}}
	seed := randSeed(n, 5)
	want := make([]float64, n)
	s.BackpropSeq(seed, want)
	team := spray.NewTeam(5)
	defer team.Close()
	for _, st := range []spray.Strategy{spray.Atomic(), spray.BlockCAS(256), spray.Keeper(), spray.Builtin()} {
		out := make([]float64, n)
		s.Backprop(team, st, seed, out)
		if d := num.MaxAbsDiff(out, want); d != 0 {
			t.Errorf("%s: diff %v", st, d)
		}
	}
}

func TestRunBackpropReuse(t *testing.T) {
	const n, rounds = 1000, 3
	w := Weights3[float64]{WL: 1, WC: 2, WR: 3}
	seed := randSeed(n, 6)
	want := make([]float64, n)
	for r := 0; r < rounds; r++ {
		w.BackpropSeq(seed, want)
	}
	team := spray.NewTeam(4)
	defer team.Close()
	out := make([]float64, n)
	red := spray.New(spray.BlockLock(128), out, team.Size())
	for r := 0; r < rounds; r++ {
		w.RunBackprop(team, red, seed)
	}
	if d := num.MaxAbsDiff(out, want); d != 0 {
		t.Errorf("reuse diff %v", d)
	}
}

func TestForwardBoundariesUntouched(t *testing.T) {
	const n = 64
	w := Weights3[float64]{WL: 1, WC: 1, WR: 1}
	in := randSeed(n, 7)
	out := make([]float64, n)
	out[0], out[n-1] = 42, 43
	w.Forward(in, out)
	if out[0] != 42 || out[n-1] != 43 {
		t.Errorf("forward touched boundaries: %v %v", out[0], out[n-1])
	}
}

func TestPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"len mismatch": func() {
			Weights3[float64]{}.Forward(make([]float64, 5), make([]float64, 6))
		},
		"too short": func() {
			Weights3[float64]{}.BackpropSeq(make([]float64, 2), make([]float64, 2))
		},
		"even stencil": func() {
			Stencil[float64]{Taps: []float64{1, 2}}.Forward(make([]float64, 10), make([]float64, 10))
		},
		"empty stencil": func() {
			Stencil[float64]{}.Radius()
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

func TestFloat32Backprop(t *testing.T) {
	const n = 1024
	w := Weights3[float32]{WL: 0.5, WC: 1, WR: 0.5}
	rng := rand.New(rand.NewSource(8))
	seed := make([]float32, n)
	for i := range seed {
		seed[i] = float32(rng.Intn(5))
	}
	want := make([]float32, n)
	w.BackpropSeq(seed, want)
	team := spray.NewTeam(3)
	defer team.Close()
	out := make([]float32, n)
	w.Backprop(team, spray.BlockCAS(128), seed, out)
	if d := num.MaxAbsDiff(out, want); d != 0 {
		t.Errorf("float32 diff %v", d)
	}
}

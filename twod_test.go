package spray

import (
	"math/rand"
	"testing"

	"spray/internal/num"
)

func TestReduceFor2DAllStrategies(t *testing.T) {
	const rows, cols = 60, 45
	rng := rand.New(rand.NewSource(17))
	in := make([]float64, rows*cols)
	for i := range in {
		in[i] = float64(rng.Intn(7) - 3)
	}
	// Reference: 4-neighbor scatter over the interior.
	want := make([]float64, rows*cols)
	for i := 1; i < rows-1; i++ {
		for j := 1; j < cols-1; j++ {
			v := in[i*cols+j]
			want[(i-1)*cols+j] += v
			want[(i+1)*cols+j] += v
			want[i*cols+j-1] += 2 * v
			want[i*cols+j+1] += 3 * v
		}
	}
	for _, st := range AllStrategies() {
		for _, threads := range []int{1, 4} {
			team := NewTeam(threads)
			out := make([]float64, rows*cols)
			r := ReduceFor2D(team, st, out, rows, cols, 1, rows-1, Static(),
				func(acc Accessor2D[float64], fromRow, toRow int) {
					for i := fromRow; i < toRow; i++ {
						for j := 1; j < cols-1; j++ {
							v := in[i*cols+j]
							acc.Add(i-1, j, v)
							acc.Add(i+1, j, v)
							acc.Add(i, j-1, 2*v)
							acc.Add(i, j+1, 3*v)
						}
					}
				})
			team.Close()
			if d := num.MaxAbsDiff(out, want); d != 0 {
				t.Errorf("%s threads=%d: diff %v", st, threads, d)
			}
			if r.Rows() != rows || r.Cols() != cols {
				t.Errorf("%s: shape %dx%d", st, r.Rows(), r.Cols())
			}
		}
	}
}

func TestNew2DValidatesShape(t *testing.T) {
	for name, fn := range map[string]func(){
		"short buffer":  func() { New2D(Atomic(), make([]float64, 11), 3, 4, 1) },
		"negative rows": func() { New2D[float64](Atomic(), nil, -1, 0, 1) },
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

func TestRunReduction2DReuse(t *testing.T) {
	const rows, cols, regions = 20, 30, 4
	team := NewTeam(3)
	defer team.Close()
	out := make([]float64, rows*cols)
	r := New2D(BlockCAS(64), out, rows, cols, team.Size())
	for reg := 0; reg < regions; reg++ {
		RunReduction2D(team, r, 0, rows, Static(),
			func(acc Accessor2D[float64], fromRow, toRow int) {
				for i := fromRow; i < toRow; i++ {
					for j := 0; j < cols; j++ {
						acc.Add(i, j, 1)
					}
				}
			})
	}
	for i, v := range out {
		if v != regions {
			t.Fatalf("out[%d]=%v, want %d", i, v, regions)
		}
	}
}

func TestRunReduction2DTeamMismatchPanics(t *testing.T) {
	team := NewTeam(2)
	defer team.Close()
	r := New2D(Atomic(), make([]float64, 12), 3, 4, 3)
	defer func() {
		if recover() == nil {
			t.Error("mismatch did not panic")
		}
	}()
	RunReduction2D(team, r, 0, 3, Static(), func(acc Accessor2D[float64], a, b int) {})
}

func TestOrderedStrategyBitwiseReproducibleThroughPublicAPI(t *testing.T) {
	const n, threads, runs = 3000, 5, 4
	in := make([]float64, n)
	rng := rand.New(rand.NewSource(8))
	for i := range in {
		in[i] = rng.Float64()
	}
	run := func() []float64 {
		team := NewTeam(threads)
		defer team.Close()
		out := make([]float64, n+1)
		ReduceFor(team, Ordered(), out, 1, n, Static(),
			func(acc Accessor[float64], from, to int) {
				for i := from; i < to; i++ {
					acc.Add(i-1, 0.3*in[i])
					acc.Add(i+1, 0.7*in[i])
				}
			})
		return out
	}
	first := run()
	for r := 1; r < runs; r++ {
		got := run()
		for i := range got {
			if got[i] != first[i] {
				t.Fatalf("run %d: out[%d]=%x differs from %x", r, i, got[i], first[i])
			}
		}
	}
}

package sparse

import (
	"math/rand"
	"testing"

	"spray"
	"spray/internal/num"
)

func TestTMulVecAllStrategies(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := FromCOO(randomCOO(rng, 300, 250, 2500))
	x := make([]float64, a.Rows)
	for i := range x {
		x[i] = float64(rng.Intn(7) - 3)
	}
	want := make([]float64, a.Cols)
	a.TMulVecSeq(x, want)
	for _, st := range spray.AllStrategies() {
		for _, threads := range []int{1, 4} {
			team := spray.NewTeam(threads)
			y := make([]float64, a.Cols)
			r := TMulVec(team, st, a, x, y)
			team.Close()
			if d := num.MaxAbsDiff(y, want); d != 0 {
				t.Errorf("%s threads=%d: diff %v", st, threads, d)
			}
			if r == nil {
				t.Errorf("%s: nil reducer", st)
			}
		}
	}
}

func TestRunTMulVecIterated(t *testing.T) {
	// PageRank-style repeated application through one reused reducer.
	rng := rand.New(rand.NewSource(12))
	a := FromCOO(randomCOO(rng, 200, 200, 1500))
	x := make([]float64, a.Rows)
	for i := range x {
		x[i] = float64(rng.Intn(5))
	}
	const rounds = 4
	want := make([]float64, a.Cols)
	for r := 0; r < rounds; r++ {
		a.TMulVecSeq(x, want)
	}
	team := spray.NewTeam(3)
	defer team.Close()
	y := make([]float64, a.Cols)
	red := spray.New(spray.BlockCAS(64), y, team.Size())
	for r := 0; r < rounds; r++ {
		RunTMulVec(team, red, a, x)
	}
	if d := num.MaxAbsDiff(y, want); d != 0 {
		t.Errorf("iterated diff %v", d)
	}
}

func TestRunTMulVecSchedMatches(t *testing.T) {
	// Chunked schedules give the keeper's mid-region drain boundaries
	// inside each member's range; results must not depend on the
	// schedule. Small-integer values keep every summation order exact, so
	// the comparison is bitwise.
	rng := rand.New(rand.NewSource(14))
	c := NewCOO[float64](600, 600)
	for i := 0; i < 600; i++ {
		c.Add(i, i, float64(rng.Intn(5)+1))
		for e := 0; e < 7; e++ {
			if j := i + rng.Intn(81) - 40; j >= 0 && j < 600 {
				c.Add(i, j, float64(rng.Intn(9)-4))
			}
		}
	}
	a := FromCOO(c)
	x := make([]float64, a.Rows)
	for i := range x {
		x[i] = float64(rng.Intn(7) - 3)
	}
	want := make([]float64, a.Cols)
	a.TMulVecSeq(x, want)
	for _, sched := range []spray.Schedule{
		spray.Static(), spray.StaticChunk(32), spray.Dynamic(16),
	} {
		team := spray.NewTeam(3)
		y := make([]float64, a.Cols)
		red := spray.New(spray.Keeper(), y, team.Size())
		RunTMulVecSched(team, red, a, x, sched)
		team.Close()
		if d := num.MaxAbsDiff(y, want); d != 0 {
			t.Errorf("%v: diff %v", sched, d)
		}
	}
}

func TestTMulVecAccumulatesIntoExisting(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	a := FromCOO(randomCOO(rng, 50, 60, 300))
	x := make([]float64, a.Rows)
	for i := range x {
		x[i] = 1
	}
	want := make([]float64, a.Cols)
	for i := range want {
		want[i] = 10
	}
	a.TMulVecSeq(x, want)
	team := spray.NewTeam(2)
	defer team.Close()
	y := make([]float64, a.Cols)
	for i := range y {
		y[i] = 10
	}
	TMulVec(team, spray.Keeper(), a, x, y)
	if d := num.MaxAbsDiff(y, want); d != 0 {
		t.Errorf("+= semantics broken: diff %v", d)
	}
}

func TestTMulVecDimensionPanic(t *testing.T) {
	a := Random[float64](10, 12, 30, 1)
	team := spray.NewTeam(2)
	defer team.Close()
	defer func() {
		if recover() == nil {
			t.Error("mismatched y did not panic")
		}
	}()
	TMulVec(team, spray.Atomic(), a, make([]float64, 10), make([]float64, 10))
}

package fem

import (
	"math"
	"testing"

	"spray"
	"spray/internal/mesh"
	"spray/internal/num"
)

func TestPatternShape(t *testing.T) {
	m := mesh.NewHex(3, 1)
	p := NewProblem(m)
	if p.Pattern.Rows != m.NumNode || p.Pattern.Cols != m.NumNode {
		t.Fatalf("pattern %dx%d", p.Pattern.Rows, p.Pattern.Cols)
	}
	if err := p.Pattern.Validate(); err != nil {
		t.Fatal(err)
	}
	// The center node of a 2-elems-per-axis neighborhood couples to its
	// full 27-node stencil; a corner node of the cube couples to 8.
	deg := func(n int) int { return int(p.Pattern.RowPtr[n+1] - p.Pattern.RowPtr[n]) }
	if d := deg(0); d != 8 {
		t.Errorf("corner degree %d, want 8", d)
	}
	en := m.EdgeNodes
	center := (en*en + en + 1) * 1 // node (1,1,1)
	if d := deg(center); d != 27 {
		t.Errorf("interior degree %d, want 27", d)
	}
}

func TestAssembleMatchesSequentialAllStrategies(t *testing.T) {
	m := mesh.NewHex(4, 1.3)
	p := NewProblem(m)
	p.AssembleSeq()
	want := append([]float64(nil), p.Pattern.Val...)
	for _, st := range []spray.Strategy{
		spray.Atomic(), spray.BlockCAS(256), spray.Keeper(), spray.Dense(),
		spray.Map(), spray.Ordered(), spray.Builtin(),
	} {
		for _, threads := range []int{1, 4} {
			team := spray.NewTeam(threads)
			r := p.Assemble(team, st)
			team.Close()
			if d := num.MaxAbsDiff(p.Pattern.Val, want); d > 1e-12 {
				t.Errorf("%s threads=%d: diff %v", st, threads, d)
			}
			if r == nil {
				t.Errorf("%s: nil reducer", st)
			}
		}
	}
}

func TestStiffnessMatrixProperties(t *testing.T) {
	m := mesh.NewHex(4, 1)
	p := NewProblem(m)
	team := spray.NewTeam(3)
	defer team.Close()
	p.Assemble(team, spray.BlockCAS(512))

	// Symmetry: K[i][j] == K[j][i] via K·x vs Kᵀ·x on a probe vector.
	x := make([]float64, m.NumNode)
	for i := range x {
		x[i] = math.Sin(float64(i))
	}
	kx := make([]float64, m.NumNode)
	p.Pattern.MulVec(x, kx)
	ktx := make([]float64, m.NumNode)
	p.Pattern.TMulVecSeq(x, ktx)
	if d := num.MaxAbsDiff(kx, ktx); d > 1e-9 {
		t.Errorf("stiffness not symmetric: %v", d)
	}

	// Null space: K·1 = 0 (constants have zero Dirichlet energy).
	for i, v := range p.RowSums() {
		if math.Abs(v) > 1e-9 {
			t.Fatalf("row sum %d = %v", i, v)
		}
	}

	// Positive semidefiniteness probe: xᵀKx >= 0 for a few vectors.
	for seed := 0; seed < 3; seed++ {
		for i := range x {
			x[i] = math.Cos(float64(seed*7+i) * 0.73)
		}
		p.Pattern.MulVec(x, kx)
		var quad float64
		for i := range x {
			quad += x[i] * kx[i]
		}
		if quad < -1e-9 {
			t.Errorf("seed %d: negative energy %v", seed, quad)
		}
	}

	// Diagonal dominance of sign: diagonal entries positive.
	for i := 0; i < m.NumNode; i++ {
		for k := p.Pattern.RowPtr[i]; k < p.Pattern.RowPtr[i+1]; k++ {
			if int(p.Pattern.Col[k]) == i && p.Pattern.Val[k] <= 0 {
				t.Fatalf("diagonal %d = %v", i, p.Pattern.Val[k])
			}
		}
	}
}

func TestAssembleLoadConservesSource(t *testing.T) {
	m := mesh.NewHex(5, 2.0)
	p := NewProblem(m)
	team := spray.NewTeam(4)
	defer team.Close()
	const f = 3.5
	rhs := make([]float64, m.NumNode)
	r := p.AssembleLoad(team, spray.Keeper(), f, rhs)
	var sum float64
	for _, v := range rhs {
		sum += v
	}
	want := f * 8.0 // f times the domain volume (side 2)
	if !num.RelClose(sum, want, 1e-12) {
		t.Errorf("total load %v, want %v", sum, want)
	}
	if r.PeakBytes() < 0 {
		t.Errorf("negative memory")
	}
	// Wrong-size rhs panics.
	defer func() {
		if recover() == nil {
			t.Error("short rhs did not panic")
		}
	}()
	p.AssembleLoad(team, spray.Atomic(), 1, make([]float64, 3))
}

func TestAssembleWithAccumulates(t *testing.T) {
	m := mesh.NewHex(3, 1)
	p := NewProblem(m)
	team := spray.NewTeam(2)
	defer team.Close()
	p.AssembleSeq()
	want := append([]float64(nil), p.Pattern.Val...)
	for i := range want {
		want[i] *= 2
	}
	clear(p.Pattern.Val)
	r := spray.New(spray.BlockLock(128), p.Pattern.Val, team.Size())
	p.AssembleWith(team, r)
	p.AssembleWith(team, r) // second pass accumulates
	if d := num.MaxAbsDiff(p.Pattern.Val, want); d > 1e-12 {
		t.Errorf("double assembly diff %v", d)
	}
}

func TestScatterOverlapIsReal(t *testing.T) {
	// Neighboring elements must write to shared CSR positions —
	// otherwise this test case would not exercise reductions at all.
	m := mesh.NewHex(2, 1)
	p := NewProblem(m)
	seen := map[int32]bool{}
	shared := 0
	for _, pos := range p.scatter {
		if seen[pos] {
			shared++
		}
		seen[pos] = true
	}
	if shared == 0 {
		t.Fatal("no shared scatter positions between elements")
	}
}

package sparse

import (
	"math/rand"
	"testing"
	"testing/quick"

	"spray/internal/num"
)

// denseOf expands a CSR matrix for reference computations.
func denseOf(a *CSR[float64]) [][]float64 {
	d := make([][]float64, a.Rows)
	for i := range d {
		d[i] = make([]float64, a.Cols)
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			d[i][a.Col[k]] += a.Val[k]
		}
	}
	return d
}

func randomCOO(rng *rand.Rand, rows, cols, nnz int) *COO[float64] {
	c := NewCOO[float64](rows, cols)
	for e := 0; e < nnz; e++ {
		c.Add(rng.Intn(rows), rng.Intn(cols), float64(rng.Intn(9)-4))
	}
	return c
}

func TestFromCOOFoldsDuplicatesAndSorts(t *testing.T) {
	c := NewCOO[float64](3, 4)
	c.Add(1, 2, 5)
	c.Add(1, 0, 1)
	c.Add(1, 2, -2) // duplicate of (1,2)
	c.Add(0, 3, 7)
	c.Add(2, 2, 4)
	a := FromCOO(c)
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if a.NNZ() != 4 {
		t.Errorf("NNZ=%d, want 4", a.NNZ())
	}
	d := denseOf(a)
	if d[1][2] != 3 || d[1][0] != 1 || d[0][3] != 7 || d[2][2] != 4 {
		t.Errorf("values wrong: %v", d)
	}
}

func TestFromCOOProperty(t *testing.T) {
	f := func(seed int64, rowsRaw, colsRaw, nnzRaw uint8) bool {
		rows := int(rowsRaw)%20 + 1
		cols := int(colsRaw)%20 + 1
		nnz := int(nnzRaw) % 200
		rng := rand.New(rand.NewSource(seed))
		c := randomCOO(rng, rows, cols, nnz)
		// Reference accumulation.
		want := make(map[[2]int32]float64)
		for k := range c.I {
			want[[2]int32{c.I[k], c.J[k]}] += c.V[k]
		}
		a := FromCOO(c)
		if a.Validate() != nil {
			return false
		}
		got := make(map[[2]int32]float64)
		for i := 0; i < a.Rows; i++ {
			for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
				got[[2]int32{int32(i), a.Col[k]}] = a.Val[k]
			}
		}
		if len(got) > len(want) {
			return false
		}
		for key, v := range want {
			if got[key] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestTransposeInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := FromCOO(randomCOO(rng, 17, 23, 120))
	att := a.Transpose().Transpose()
	if att.Rows != a.Rows || att.Cols != a.Cols || att.NNZ() != a.NNZ() {
		t.Fatalf("shape changed: %dx%d nnz %d", att.Rows, att.Cols, att.NNZ())
	}
	da, dt := denseOf(a), denseOf(att)
	for i := range da {
		for j := range da[i] {
			if da[i][j] != dt[i][j] {
				t.Fatalf("(%d,%d): %v vs %v", i, j, da[i][j], dt[i][j])
			}
		}
	}
	if err := att.Validate(); err != nil {
		t.Error(err)
	}
}

func TestTMulVecSeqMatchesTransposeMulVec(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := FromCOO(randomCOO(rng, 40, 30, 300))
	x := make([]float64, a.Rows)
	for i := range x {
		x[i] = float64(rng.Intn(7) - 3)
	}
	y1 := make([]float64, a.Cols)
	a.TMulVecSeq(x, y1)
	at := a.Transpose()
	y2 := make([]float64, a.Cols)
	at.MulVec(x, y2)
	if d := num.MaxAbsDiff(y1, y2); d > 1e-12 {
		t.Errorf("scatter vs transposed gather diff %v", d)
	}
}

func TestMulVecAgainstDense(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := FromCOO(randomCOO(rng, 25, 35, 200))
	d := denseOf(a)
	x := make([]float64, a.Cols)
	for i := range x {
		x[i] = rng.Float64()
	}
	y := make([]float64, a.Rows)
	a.MulVec(x, y)
	for i := range y {
		var want float64
		for j := range x {
			want += d[i][j] * x[j]
		}
		if !num.RelClose(y[i], want, 1e-12) {
			t.Fatalf("row %d: %v vs %v", i, y[i], want)
		}
	}
}

func TestDimensionPanics(t *testing.T) {
	a := FromCOO(randomCOO(rand.New(rand.NewSource(1)), 5, 7, 10))
	for name, fn := range map[string]func(){
		"MulVec x":     func() { a.MulVec(make([]float64, 5), make([]float64, 5)) },
		"TMulVecSeq y": func() { a.TMulVecSeq(make([]float64, 5), make([]float64, 5)) },
		"COO bounds":   func() { NewCOO[float64](2, 2).Add(2, 0, 1) },
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

func TestGenerators(t *testing.T) {
	a := Banded[float32](5000, 5000, 9, 40, 1)
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if bw := a.Bandwidth(); bw > 40 {
		t.Errorf("bandwidth %d exceeds requested 40", bw)
	}
	perRow := float64(a.NNZ()) / 5000
	if perRow < 5 || perRow > 9 {
		t.Errorf("entries per row %.1f outside [5,9]", perRow)
	}
	g := Graph[float32](2000, 4, 3)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.NNZ() < 2000 {
		t.Errorf("graph too sparse: %d edges", g.NNZ())
	}
}

func TestPaperMatrixProfiles(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix generation is slow under -short")
	}
	s3 := S3DKT3M2Like[float32](1)
	if s3.Rows != 90449 || s3.Cols != 90449 {
		t.Errorf("s3dkt3m2-like shape %dx%d", s3.Rows, s3.Cols)
	}
	// Paper: 1.9M nonzeros, narrow band.
	if s3.NNZ() < 1_500_000 || s3.NNZ() > 2_100_000 {
		t.Errorf("s3dkt3m2-like NNZ=%d", s3.NNZ())
	}
	if bw := s3.Bandwidth(); bw > 600 {
		t.Errorf("s3dkt3m2-like bandwidth %d", bw)
	}
	if err := s3.Validate(); err != nil {
		t.Error(err)
	}
}

func TestCSRBytesPositive(t *testing.T) {
	a := Banded[float32](50, 50, 2, 50, 1)
	if a.Bytes() <= 0 {
		t.Errorf("Bytes=%d", a.Bytes())
	}
	b := Banded[float64](50, 50, 2, 50, 1)
	if b.Bytes() <= a.Bytes() {
		t.Errorf("float64 matrix not bigger: %d vs %d", b.Bytes(), a.Bytes())
	}
}

func TestBandwidth(t *testing.T) {
	c := NewCOO[float64](10, 10)
	c.Add(0, 0, 1)
	c.Add(3, 7, 1)
	c.Add(9, 2, 1)
	a := FromCOO(c)
	if bw := a.Bandwidth(); bw != 7 {
		t.Errorf("bandwidth=%d, want 7", bw)
	}
}

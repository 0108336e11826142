package main

import (
	"math"
	"math/rand"
	"slices"

	"spray/internal/sparse"
)

// The benchmark owns its inputs and its sequential controls: the program
// under test receives only the arrays generated here, and the control
// loops below are plain copies of `out[idx] += v` that no change to the
// program can move.

// uniformVec returns n seeded values uniform in [-1, 1): the adjoint seed
// of the conv workloads and the x vector of tmv-banded.
func uniformVec(n int, seed int64) []float32 {
	rng := rand.New(rand.NewSource(seed))
	s := make([]float32, n)
	for i := range s {
		s[i] = float32(2*rng.Float64() - 1)
	}
	return s
}

// convBackpropSeq is the sequential Figure 9 loop: seed[i] scattered into
// out[i-1], out[i] and out[i+1] for every interior i.
func convBackpropSeq(wl, wc, wr float32, seed, out []float32) {
	for i := 1; i < len(seed)-1; i++ {
		s := seed[i]
		out[i-1] += wl * s
		out[i] += wc * s
		out[i+1] += wr * s
	}
}

// bandedCSR fills a rows×rows float32 CSR matrix directly: every row holds
// its diagonal plus perRow-1 distinct columns drawn uniformly from the
// band |i-j| <= halfBand, sorted ascending, with values uniform in
// [0.01, 1.01). With rows=90449, perRow=21 and halfBand=600 it has the
// shape of the s3dkt3m2 shell matrix of the paper's Figure 10.
func bandedCSR(rows, perRow, halfBand int, seed int64) *sparse.CSR[float32] {
	rng := rand.New(rand.NewSource(seed))
	a := &sparse.CSR[float32]{
		Rows:   rows,
		Cols:   rows,
		RowPtr: make([]int64, rows+1),
		Col:    make([]int32, 0, rows*perRow),
		Val:    make([]float32, 0, rows*perRow),
	}
	cols := make([]int32, 0, perRow)
	for i := 0; i < rows; i++ {
		lo, hi := max(0, i-halfBand), min(rows-1, i+halfBand)
		want := min(perRow, hi-lo+1)
		cols = append(cols[:0], int32(i))
		for len(cols) < want {
			j := int32(lo + rng.Intn(hi-lo+1))
			if k, found := slices.BinarySearch(cols, j); !found {
				cols = slices.Insert(cols, k, j)
			}
		}
		for _, j := range cols {
			a.Col = append(a.Col, j)
			a.Val = append(a.Val, float32(0.01+rng.Float64()))
		}
		a.RowPtr[i+1] = int64(len(a.Col))
	}
	return a
}

// tmulvecSeq is the sequential Figure 10 loop: y += Aᵀx, one
// `y[col] += val*x[row]` per stored entry.
func tmulvecSeq(a *sparse.CSR[float32], x, y []float32) {
	for i := 0; i < a.Rows; i++ {
		xi := x[i]
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			y[a.Col[k]] += a.Val[k] * xi
		}
	}
}

// withinTol reports whether got matches ref element-wise to
// |got-ref| <= 1e-4·(1+|ref|), the float32 tolerance for a reduction
// whose summation order differs from the sequential loop's.
func withinTol(got, ref []float32) bool {
	for i, r := range ref {
		if math.Abs(float64(got[i])-float64(r)) > 1e-4*(1+math.Abs(float64(r))) {
			return false
		}
	}
	return true
}

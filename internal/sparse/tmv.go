package sparse

import (
	"spray"
	"spray/internal/num"
)

// TMulVec computes y += Aᵀ·x in parallel using the given SPRAY strategy:
// rows are split across the team (the paper's outer loop, default static
// schedule) and the data-dependent column updates scatter through the
// reducer. The returned Reducer exposes the strategy's memory overhead.
func TMulVec[T num.Float](team *spray.Team, st spray.Strategy, a *CSR[T], x, y []T) spray.Reducer[T] {
	a.checkDims(x, y, true)
	r := spray.New(st, y, team.Size())
	RunTMulVec(team, r, a, x)
	return r
}

// RunTMulVec runs one y += Aᵀ·x region through an existing Reducer
// wrapping y, for callers that apply the product repeatedly (iterative
// solvers, PageRank) and want to reuse the reducer's internal state.
//
// Each CSR row's updates are a gathered batch whose index list already
// exists (a.Col): the row's values are scaled by x[i] into a per-thread
// scratch buffer and pushed with one Scatter per row, so the reducer
// pays one dynamic dispatch per row instead of one per nonzero.
func RunTMulVec[T num.Float](team *spray.Team, r spray.Reducer[T], a *CSR[T], x []T) {
	RunTMulVecSched(team, r, a, x, spray.Static())
}

// RunTMulVecSched is RunTMulVec with an explicit loop schedule. Chunked
// schedules (StaticChunk, Dynamic) give reducers with a mid-region drain
// (keeper, and wrappers over it) chunk boundaries inside each
// member's row range, so inbound foreign work is applied while the region
// runs instead of piling up until Finalize.
func RunTMulVecSched[T num.Float](team *spray.Team, r spray.Reducer[T], a *CSR[T], x []T, s spray.Schedule) {
	spray.RunReduction(team, r, 0, a.Rows, s,
		func(acc spray.Accessor[T], from, to int) {
			bacc := spray.Bulk(acc)
			var vals []T
			for i := from; i < to; i++ {
				xi := x[i]
				k0, k1 := a.RowPtr[i], a.RowPtr[i+1]
				n := int(k1 - k0)
				if n == 0 {
					continue
				}
				if cap(vals) < n {
					vals = make([]T, n)
				}
				vals = vals[:n]
				row := a.Val[k0:k1]
				for k, v := range row {
					vals[k] = v * xi
				}
				bacc.Scatter(a.Col[k0:k1], vals)
			}
		})
}

// RunTMulVecIters applies y += Aᵀ·x for iters rounds through one
// Reducer — the iterative-solver shape (power iteration, PageRank,
// repeated SpMV in MKL's inspector/executor benchmarks) where the matrix
// structure, and therefore every region's scatter index pattern, is
// identical across rounds. That makes it the amortization workload for
// the plan-compiled wrapper: round 1 records and compiles, rounds 2..N
// execute race-free, and the one-time inspection cost divides away as
// iters grows.
func RunTMulVecIters[T num.Float](team *spray.Team, r spray.Reducer[T], a *CSR[T], x []T, iters int) {
	for it := 0; it < iters; it++ {
		RunTMulVec(team, r, a, x)
	}
}

// RunTMulVecEach is the element-wise form of RunTMulVec — one Add per
// nonzero, the paper's original loop shape. Kept as the reference (and
// benchmark baseline) for the bulk path.
func RunTMulVecEach[T num.Float](team *spray.Team, r spray.Reducer[T], a *CSR[T], x []T) {
	spray.RunReduction(team, r, 0, a.Rows, spray.Static(),
		func(acc spray.Accessor[T], from, to int) {
			for i := from; i < to; i++ {
				xi := x[i]
				for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
					acc.Add(int(a.Col[k]), a.Val[k]*xi)
				}
			}
		})
}

package experiments

import (
	"fmt"

	"spray"
	"spray/internal/bench"
	"spray/internal/sparse"
)

// The bulk-update comparison drives every strategy twice over the same
// workload — once through the element-wise Add loop and once through the
// AddN/Scatter batch path — so the two series isolate per-call dispatch
// and bounds-check overhead. It runs the strategies where the batch path
// has a structural shortcut (dense/block: contiguous runs; keeper:
// ownership runs; atomic as the no-memory reference point) in place of
// cfg.Strategies, and both workloads own their loops, so cfg.Schedule is
// unused.
var bulkStrategies = []spray.Strategy{
	spray.Dense(),
	spray.Atomic(),
	spray.BlockCAS(1024),
	spray.Keeper(),
}

// BulkConv compares element-wise against bulk accumulation on the conv
// back-propagation workload (contiguous AddN runs).
func BulkConv(cfg ConvConfig) *bench.Result {
	res := &bench.Result{
		Title:    fmt.Sprintf("Bulk fast path: conv back-propagation, each vs bulk (N=%d)", cfg.N),
		XLabel:   "threads",
		Baseline: ConvSequentialBaseline(cfg),
		Notes: []string{
			"<strategy>/each: one Add per tap; <strategy>/bulk: one AddN per 1024-seed tile, its taps combined into one value per output",
		},
	}
	seed := convData(cfg.N)
	out := make([]float32, cfg.N)
	for _, st := range bulkStrategies {
		sweep(cfg, res, st, out,
			leg[float32]{st.String() + "/each", func(team *spray.Team, r spray.Reducer[float32], iters int) {
				for i := 0; i < iters; i++ {
					convWeights.RunBackpropEach(team, r, seed)
				}
			}},
			leg[float32]{st.String() + "/bulk", func(team *spray.Team, r spray.Reducer[float32], iters int) {
				for i := 0; i < iters; i++ {
					convWeights.RunBackprop(team, r, seed)
				}
			}})
	}
	return res
}

// BulkGraph compares element-wise against bulk accumulation on the
// power-law graph push: the transpose product of sparse.Graph over
// cfg.N nodes, with data-dependent Scatter batches over each row's
// column list.
func BulkGraph(cfg ConvConfig) *bench.Result {
	a := sparse.Graph[float32](cfg.N, 8, 99)
	res := &bench.Result{
		Title:    fmt.Sprintf("Bulk fast path: graph push, each vs bulk (%dx%d, %d nnz)", a.Rows, a.Cols, a.NNZ()),
		XLabel:   "threads",
		Baseline: TMVSequentialBaseline(a, cfg.Runner),
		Notes: []string{
			"<strategy>/each: one Add per nonzero; <strategy>/bulk: one Scatter per row",
		},
	}
	x := vecOnes(a.Rows)
	y := make([]float32, a.Cols)
	for _, st := range bulkStrategies {
		sweep(cfg, res, st, y,
			leg[float32]{st.String() + "/each", func(team *spray.Team, r spray.Reducer[float32], iters int) {
				for i := 0; i < iters; i++ {
					sparse.RunTMulVecEach(team, r, a, x)
				}
			}},
			leg[float32]{st.String() + "/bulk", func(team *spray.Team, r spray.Reducer[float32], iters int) {
				for i := 0; i < iters; i++ {
					sparse.RunTMulVec(team, r, a, x)
				}
			}})
	}
	return res
}

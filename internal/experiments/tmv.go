package experiments

import (
	"fmt"

	"spray"
	"spray/internal/bench"
	"spray/internal/mkl"
	"spray/internal/par"
	"spray/internal/sparse"
)

// TMVConfig parameterizes the CSR transpose-matrix-vector experiment
// (§VI-B / Figures 14 and 15). The matrix sets the problem size, so
// ConvConfig.N is unused; ConvConfig.Schedule selects the loop schedule
// of the row sweep (the MKL baselines ignore it — they own their loops).
type TMVConfig struct {
	ConvConfig
	Name   string
	Matrix *sparse.CSR[float32]
}

// TMVSequentialBaseline measures the sequential Figure 10 scatter loop.
func TMVSequentialBaseline(a *sparse.CSR[float32], runner bench.Runner) float64 {
	x := vecOnes(a.Rows)
	y := make([]float32, a.Cols)
	return runner.AutoBench(func(iters int) {
		for i := 0; i < iters; i++ {
			a.TMulVecSeq(x, y)
		}
	}).Mean
}

func vecOnes(n int) []float32 {
	x := make([]float32, n)
	for i := range x {
		x[i] = 1
	}
	return x
}

// TMV reproduces one of Figures 14/15 (left: run time vs threads; the
// Bytes column of each point is the right panel's memory overhead):
// SPRAY strategies against the MKL-substitute legacy and
// inspector/executor baselines on the given matrix.
func TMV(cfg TMVConfig) *bench.Result {
	a := cfg.Matrix
	res := &bench.Result{
		Title:    fmt.Sprintf("Figure 14/15: transpose-matrix-vector on %s (%dx%d, %d nnz)", cfg.Name, a.Rows, a.Cols, a.NNZ()),
		XLabel:   "threads",
		Baseline: TMVSequentialBaseline(a, cfg.Runner),
		Notes: []string{
			"MKL closed-source baselines substituted with vendor-style Go implementations (DESIGN.md)",
			"MKL-IE-hint excludes inspection time from the measurement, as in the paper",
		},
	}
	x := vecOnes(a.Rows)
	y := make([]float32, a.Cols)

	for _, st := range cfg.Strategies {
		sweep(cfg.ConvConfig, res, st, y, leg[float32]{st.String(), func(team *spray.Team, r spray.Reducer[float32], iters int) {
			for i := 0; i < iters; i++ {
				sparse.RunTMulVecSched(team, r, a, x, cfg.Schedule)
			}
		}})
	}

	for _, th := range cfg.Threads {
		team := par.NewTeam(th)

		var legacyBytes int64
		legacy := cfg.Runner.AutoBench(func(iters int) {
			for i := 0; i < iters; i++ {
				legacyBytes = mkl.LegacyTMulVec(team, a, x, y)
			}
		})
		res.AddPoint("mkl-legacy", bench.Point{X: float64(th), Time: legacy, Bytes: legacyBytes})

		h := mkl.NewHandle(a)
		h.Optimize()
		var ieBytes int64
		ie := cfg.Runner.AutoBench(func(iters int) {
			for i := 0; i < iters; i++ {
				ieBytes = h.ExecuteTMulVec(team, x, y)
			}
		})
		res.AddPoint("mkl-ie", bench.Point{X: float64(th), Time: ie, Bytes: ieBytes})

		hh := mkl.NewHandle(a)
		hh.SetHint(mkl.Hint{Transpose: true, Calls: 1 << 20})
		hh.Optimize() // inspection excluded from timing, as in the paper
		hint := cfg.Runner.AutoBench(func(iters int) {
			for i := 0; i < iters; i++ {
				hh.ExecuteTMulVec(team, x, y)
			}
		})
		res.AddPoint("mkl-ie-hint", bench.Point{X: float64(th), Time: hint, Bytes: hh.ExtraBytes()})

		team.Close()
	}
	return res
}

package experiments

import (
	"fmt"

	"spray"
	"spray/internal/bench"
	"spray/internal/sparse"
)

// BulkConfig parameterizes the bulk-update comparison: every strategy is
// driven twice over the same workload — once through the element-wise
// Add loop and once through the AddN/Scatter batch path — so the two
// series isolate per-call dispatch and bounds-check overhead.
type BulkConfig struct {
	N          int // conv array length / graph node count
	Threads    []int
	Strategies []spray.Strategy
	Runner     bench.Runner

	// Telemetry instruments every (strategy, threads) run: each measured
	// point carries the strategy counters accumulated while it was timed,
	// and OnReport (when set) receives the full RegionReport per series
	// point, labeled "<strategy>/<each|bulk> t=<threads>".
	Telemetry bool
	OnReport  func(label string, rep spray.RegionReport)
}

// DefaultBulkConfig selects the strategies where the batch path has a
// structural shortcut (dense/block: contiguous runs; keeper: ownership
// runs; atomic as the no-memory reference point).
func DefaultBulkConfig(n, maxThreads int) BulkConfig {
	return BulkConfig{
		N:       n,
		Threads: bench.ThreadCounts(maxThreads),
		Strategies: []spray.Strategy{
			spray.Dense(),
			spray.Atomic(),
			spray.BlockCAS(1024),
			spray.Keeper(),
		},
		Runner: bench.DefaultRunner(),
	}
}

// bulkPoint measures one series point, capturing the telemetry counters
// accumulated during the timed window when the run is instrumented.
func bulkPoint(cfg BulkConfig, in *spray.Instrumentation, th int, label string, run func(iters int)) bench.Point {
	if in != nil {
		in.Reset()
	}
	p := bench.Point{X: float64(th), Time: cfg.Runner.AutoBench(run)}
	if in != nil {
		rep := in.Report()
		p.Counters = rep.CounterMap()
		if cfg.OnReport != nil {
			cfg.OnReport(fmt.Sprintf("%s t=%d", label, th), rep)
		}
	}
	return p
}

// BulkConv compares element-wise against bulk accumulation on the conv
// back-propagation workload (contiguous AddN runs).
func BulkConv(cfg BulkConfig) *bench.Result {
	res := &bench.Result{
		Title:    fmt.Sprintf("Bulk fast path: conv back-propagation, each vs bulk (N=%d)", cfg.N),
		XLabel:   "threads",
		Baseline: ConvSequentialBaseline(ConvConfig{N: cfg.N, Runner: cfg.Runner}),
		Notes: []string{
			"<strategy>/each: one Add per tap; <strategy>/bulk: tiled AddN batches",
		},
	}
	seed := convData(cfg.N)
	out := make([]float32, cfg.N)
	for _, st := range cfg.Strategies {
		for _, th := range cfg.Threads {
			team := spray.NewTeam(th)
			r := spray.New(st, out, th)
			var in *spray.Instrumentation
			if cfg.Telemetry {
				in = spray.Instrument(team, r)
			}
			each := bulkPoint(cfg, in, th, st.String()+"/each", func(iters int) {
				for i := 0; i < iters; i++ {
					convWeights.RunBackpropEach(team, r, seed)
				}
			})
			each.Bytes = r.PeakBytes()
			res.AddPoint(st.String()+"/each", each)
			bulk := bulkPoint(cfg, in, th, st.String()+"/bulk", func(iters int) {
				for i := 0; i < iters; i++ {
					convWeights.RunBackprop(team, r, seed)
				}
			})
			bulk.Bytes = r.PeakBytes()
			res.AddPoint(st.String()+"/bulk", bulk)
			if in != nil {
				in.Detach()
			}
			team.Close()
		}
	}
	return res
}

// BulkGraph compares element-wise against bulk accumulation on the
// power-law graph push: the transpose product of sparse.Graph, with
// data-dependent Scatter batches over each row's column list.
func BulkGraph(cfg BulkConfig) *bench.Result {
	a := sparse.Graph[float32](cfg.N, 8, 99)
	res := &bench.Result{
		Title:    fmt.Sprintf("Bulk fast path: graph push, each vs bulk (%dx%d, %d nnz)", a.Rows, a.Cols, a.NNZ()),
		XLabel:   "threads",
		Baseline: TMVSequentialBaseline(TMVConfig{Matrix: a, Runner: cfg.Runner}),
		Notes: []string{
			"<strategy>/each: one Add per nonzero; <strategy>/bulk: one Scatter per row",
		},
	}
	x := vecOnes(a.Rows)
	y := make([]float32, a.Cols)
	for _, st := range cfg.Strategies {
		for _, th := range cfg.Threads {
			team := spray.NewTeam(th)
			r := spray.New(st, y, th)
			var in *spray.Instrumentation
			if cfg.Telemetry {
				in = spray.Instrument(team, r)
			}
			each := bulkPoint(cfg, in, th, st.String()+"/each", func(iters int) {
				for i := 0; i < iters; i++ {
					sparse.RunTMulVecEach(team, r, a, x)
				}
			})
			each.Bytes = r.PeakBytes()
			res.AddPoint(st.String()+"/each", each)
			bulk := bulkPoint(cfg, in, th, st.String()+"/bulk", func(iters int) {
				for i := 0; i < iters; i++ {
					sparse.RunTMulVec(team, r, a, x)
				}
			})
			bulk.Bytes = r.PeakBytes()
			res.AddPoint(st.String()+"/bulk", bulk)
			if in != nil {
				in.Detach()
			}
			team.Close()
		}
	}
	return res
}

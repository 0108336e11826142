package experiments

import (
	"fmt"

	"spray"
	"spray/internal/bench"
	"spray/internal/mkl"
	"spray/internal/par"
	"spray/internal/sparse"
	"spray/internal/stats"
)

// PlanConfig parameterizes the plan-amortization experiment: repeated
// y += Aᵀ·x applications through one reducer, swept over the number of
// applications per solve. Every solve starts from cold strategy state,
// so a plan-compiled wrapper pays its record region and compile inside
// the measurement — the curve shows where that one-time cost divides
// away, the inspector/executor trade MKL's hinted Optimize makes.
type PlanConfig struct {
	Rows       int   // banded matrix dimension (s3dkt3m2-shaped band profile)
	Threads    int   // fixed team size for the iteration sweep
	Iterations []int // x-axis: applications per cold-start solve
	Strategies []spray.Strategy
	Runner     bench.Runner
	WithMKL    bool

	// Telemetry adds one untimed instrumented solve per (strategy,
	// iterations) point after the timed window: its counters — for plan
	// strategies one miss, iterations-1 hits, and a compile-latency
	// sample — ride along in the JSON output, and OnReport (when set)
	// receives the full region report. The instrumented solve stays
	// outside the timing so counter overhead never contaminates the curve.
	Telemetry bool
	OnReport  func(label string, rep spray.RegionReport)

	// HotProfile, when set, attaches the index-space contention profiler
	// to the untimed instrumented solve (implying one even when Telemetry
	// is off) and delivers its sampled profile per (strategy, iterations)
	// point, labeled "<strategy> iters=<K>". Hotspot tunes the sampling;
	// the zero value uses the profiler defaults.
	HotProfile func(label string, p *spray.HotspotProfile)
	Hotspot    spray.HotspotOptions
}

// DefaultPlanConfig pits the plan wrapper against the strategies it
// bypasses: the no-memory atomic reference and the paper's block and
// keeper schemes.
func DefaultPlanConfig(rows, threads int) PlanConfig {
	return PlanConfig{
		Rows:       rows,
		Threads:    threads,
		Iterations: []int{1, 2, 4, 8, 16, 32},
		Strategies: []spray.Strategy{
			spray.Atomic(),
			spray.BlockCAS(1024),
			spray.Keeper(),
			spray.Planned(spray.Atomic()),
			spray.Planned(spray.Keeper()),
		},
		Runner:  bench.DefaultRunner(),
		WithMKL: true,
	}
}

// perApply rescales a solve-level summary to seconds per application so
// points at different iteration counts share one axis.
func perApply(s stats.Summary, iters int) stats.Summary {
	f := 1 / float64(iters)
	s.Mean *= f
	s.Min *= f
	s.Max *= f
	s.Median *= f
	s.Stddev *= f
	return s
}

// PlanTMV measures the amortization curve of plan-compiled reduction on
// the banded s3dkt3m2-shaped transpose-matrix-vector product. One
// workload unit is a cold-start solve: fresh strategy state, then the
// product applied K times through it. Reported times are per
// application, so a flat line means no setup cost and a falling line is
// setup cost amortizing across the solve.
func PlanTMV(cfg PlanConfig) *bench.Result {
	a := sparse.Banded[float32](cfg.Rows, cfg.Rows, 21, 600, 1)
	res := &bench.Result{
		Title: fmt.Sprintf("Plan amortization: transpose-matrix-vector on banded %dx%d (%d nnz), t=%d",
			a.Rows, a.Cols, a.NNZ(), cfg.Threads),
		XLabel:   "iterations",
		Baseline: TMVSequentialBaseline(TMVConfig{Matrix: a, Runner: cfg.Runner}),
		Notes: []string{
			"times are per application; every solve starts cold, so plan record+compile and MKL-IE inspection are inside the measurement",
			"mkl-ie includes the hinted inspection (transpose build), unlike fig14's mkl-ie-hint which excludes it",
		},
	}
	x := vecOnes(a.Rows)
	y := make([]float32, a.Cols)
	th := cfg.Threads

	for _, st := range cfg.Strategies {
		team := spray.NewTeam(th)
		for _, iters := range cfg.Iterations {
			var r spray.Reducer[float32]
			summary := cfg.Runner.AutoBench(func(n int) {
				for s := 0; s < n; s++ {
					r = spray.New(st, y, th)
					sparse.RunTMulVecIters(team, r, a, x, iters)
				}
			})
			p := bench.Point{X: float64(iters), Time: perApply(summary, iters), Bytes: r.PeakBytes()}
			if cfg.Telemetry || cfg.HotProfile != nil {
				ri := spray.New(st, y, th)
				in := spray.Instrument(team, ri)
				if cfg.HotProfile != nil {
					in.EnableHotspot(a.Cols, cfg.Hotspot)
				}
				sparse.RunTMulVecIters(team, ri, a, x, iters)
				rep := in.Report()
				p.Counters = rep.CounterMap()
				if cfg.OnReport != nil {
					cfg.OnReport(fmt.Sprintf("%s iters=%d", st, iters), rep)
				}
				if cfg.HotProfile != nil {
					cfg.HotProfile(fmt.Sprintf("%s iters=%d", st, iters), in.HotspotProfile())
				}
				in.Detach()
			}
			res.AddPoint(st.String(), p)
		}
		team.Close()
	}

	if cfg.WithMKL {
		team := par.NewTeam(th)
		for _, iters := range cfg.Iterations {
			var extra int64
			summary := cfg.Runner.AutoBench(func(n int) {
				for s := 0; s < n; s++ {
					h := mkl.NewHandle(a)
					h.SetHint(mkl.Hint{Transpose: true, Calls: iters})
					h.Optimize() // inspection inside the timing: the cost being amortized
					for k := 0; k < iters; k++ {
						h.ExecuteTMulVec(team, x, y)
					}
					extra = h.ExtraBytes()
				}
			})
			res.AddPoint("mkl-ie", bench.Point{X: float64(iters), Time: perApply(summary, iters), Bytes: extra})
		}
		team.Close()
	}
	return res
}

// Package experiments implements the paper's evaluation section: one
// driver per figure, shared between the cmd/ tools and the benchmark
// suite. Every driver returns a bench.Result holding the same series the
// corresponding figure plots.
package experiments

import (
	"fmt"
	"math/rand"

	"spray"
	"spray/internal/bench"
	"spray/internal/conv"
)

// ConvConfig parameterizes the 1-D convolution back-propagation
// experiment (§VI-A / Figures 11–13). The paper uses 10⁷ single-precision
// elements.
type ConvConfig struct {
	N          int
	Threads    []int
	Strategies []spray.Strategy
	Runner     bench.Runner

	// Schedule selects the loop schedule the back-propagation sweep runs
	// under (zero value: static, the paper's setup). Schedule sweeps use
	// this to rerun the figure per schedule without recompiling.
	Schedule spray.Schedule

	// Instrument attaches telemetry to every (strategy, threads) run:
	// each measured point carries the strategy counters accumulated while
	// it was timed, and OnReport (when set) receives the full
	// RegionReport, labeled "<strategy> t=<threads>".
	Instrument bool
	OnReport   func(label string, rep spray.RegionReport)
}

// DefaultConvConfig returns the paper's setup scaled by size (pass the
// paper's 10⁷ or something smaller for quick runs).
func DefaultConvConfig(n, maxThreads int) ConvConfig {
	return ConvConfig{
		N:       n,
		Threads: bench.ThreadCounts(maxThreads),
		Strategies: []spray.Strategy{
			spray.Builtin(),
			spray.Dense(),
			spray.Atomic(),
			spray.BlockLock(1024),
			spray.BlockCAS(1024),
			spray.Keeper(),
		},
		Runner: bench.DefaultRunner(),
	}
}

// convData builds a deterministic seed vector.
func convData(n int) []float32 {
	rng := rand.New(rand.NewSource(42))
	seed := make([]float32, n)
	for i := range seed {
		seed[i] = rng.Float32()
	}
	return seed
}

// convWeights is the fixed 3-point kernel.
var convWeights = conv.Weights3[float32]{WL: 0.25, WC: 0.5, WR: 0.25}

// ConvSequentialBaseline measures the sequential Figure 9 sweep.
func ConvSequentialBaseline(cfg ConvConfig) float64 {
	seed := convData(cfg.N)
	out := make([]float32, cfg.N)
	return cfg.Runner.AutoBench(func(iters int) {
		for i := 0; i < iters; i++ {
			convWeights.BackpropSeq(seed, out)
		}
	}).Mean
}

// Fig11 reproduces Figure 11: speedup of OpenMP-style and SPRAY
// reductions over the sequential back-propagation across thread counts.
// (The paper's three-compiler dimension collapses to the single Go
// toolchain; see DESIGN.md.)
func Fig11(cfg ConvConfig) *bench.Result {
	res := &bench.Result{
		Title:    "Figure 11: conv back-propagation speedup over sequential",
		XLabel:   "threads",
		Baseline: ConvSequentialBaseline(cfg),
		Notes: []string{
			"paper sweeps icc/gcc/clang; Go has a single toolchain",
			fmt.Sprintf("N=%d float32 elements", cfg.N),
		},
	}
	seed := convData(cfg.N)
	out := make([]float32, cfg.N)
	for _, st := range cfg.Strategies {
		for _, th := range cfg.Threads {
			team := spray.NewTeam(th)
			r := spray.New(st, out, th)
			var in *spray.Instrumentation
			if cfg.Instrument {
				in = spray.Instrument(team, r)
			}
			summary := cfg.Runner.AutoBench(func(iters int) {
				for i := 0; i < iters; i++ {
					convWeights.RunBackpropSched(team, r, seed, cfg.Schedule)
				}
			})
			p := bench.Point{X: float64(th), Time: summary, Bytes: r.PeakBytes()}
			if in != nil {
				rep := in.Report()
				p.Counters = rep.CounterMap()
				if cfg.OnReport != nil {
					cfg.OnReport(fmt.Sprintf("%s t=%d", st, th), rep)
				}
				in.Detach()
			}
			res.AddPoint(st.String(), p)
			team.Close()
		}
	}
	return res
}

// Fig12 reproduces Figure 12: best absolute run time per reduction
// implementation across all tested thread counts.
func Fig12(cfg ConvConfig) *bench.Result {
	full := Fig11(cfg)
	res := &bench.Result{
		Title:    "Figure 12: conv back-propagation best absolute time per implementation",
		XLabel:   "impl#",
		Baseline: full.Baseline,
		Notes: []string{
			"paper compares compilers x optimization levels; reproduced as best-per-strategy",
		},
	}
	for i, s := range full.Series {
		best := s.Points[0]
		for _, p := range s.Points[1:] {
			if p.Time.Mean < best.Time.Mean {
				best = p
			}
		}
		res.AddPoint(fmt.Sprintf("%s@%dT", s.Name, int(best.X)), bench.Point{X: float64(i + 1), Time: best.Time, Bytes: best.Bytes})
	}
	return res
}

// Fig13Config extends the conv experiment with the block-size sweep of
// Figure 13.
type Fig13Config struct {
	ConvConfig
	BlockSizes []int
}

// DefaultFig13Config uses the paper's block-size range 16..16384.
func DefaultFig13Config(n, maxThreads int) Fig13Config {
	cfg := DefaultConvConfig(n, maxThreads)
	cfg.Strategies = nil // replaced by the sweep below
	return Fig13Config{
		ConvConfig: cfg,
		BlockSizes: []int{16, 64, 256, 1024, 4096, 16384},
	}
}

// Fig13 reproduces Figure 13: scalability of SPRAY backends and block
// sizes over the sequential back-propagation.
func Fig13(cfg Fig13Config) *bench.Result {
	strategies := []spray.Strategy{spray.Map(), spray.BTree(0), spray.Keeper()}
	for _, bs := range cfg.BlockSizes {
		strategies = append(strategies,
			spray.BlockPrivate(bs), spray.BlockLock(bs), spray.BlockCAS(bs))
	}
	c := cfg.ConvConfig
	c.Strategies = strategies
	full := Fig11(c)
	full.Title = "Figure 13: SPRAY backends and block-size sweep (conv back-propagation)"
	return full
}

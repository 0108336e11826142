// Package experiments implements the paper's evaluation section behind
// cmd/sprayall: one driver per figure, all measuring their reducer
// points through one loop (sweep). Every driver returns a bench.Result
// holding the same series the corresponding figure plots.
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
// elements. Every other sweep embeds it or takes it whole, so these are
// also the settings every measured point shares.
type ConvConfig struct {
	N          int
	Threads    []int
	Strategies []spray.Strategy
	Runner     bench.Runner

	// Schedule selects the loop schedule the back-propagation sweep runs
	// under (zero value: static, the paper's setup). Schedule sweeps use
	// this to rerun the figure per schedule without recompiling.
	Schedule spray.Schedule

	// Instrument attaches telemetry to every measured point: the point
	// carries the strategy counters accumulated while it was timed, and
	// OnReport (when set) receives the full RegionReport, labeled
	// "<result title>: <series> t=<threads>".
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
			"each tile's three taps are summed before one AddN, so a strategy receives one update per output per tile, not the paper's three per seed",
		},
	}
	seed := convData(cfg.N)
	out := make([]float32, cfg.N)
	for _, st := range cfg.Strategies {
		sweep(cfg, res, st, out, leg[float32]{st.String(), func(team *spray.Team, r spray.Reducer[float32], iters int) {
			for i := 0; i < iters; i++ {
				convWeights.RunBackpropSched(team, r, seed, cfg.Schedule)
			}
		}})
	}
	return res
}

// leg is one series of a sweep: its name and the workload, which must
// run iters times through the point's team and reducer.
type leg[T spray.Value] struct {
	series string
	run    func(team *spray.Team, r spray.Reducer[T], iters int)
}

// sweep measures one point per leg at every thread count of cfg: a team
// of th members reduces into out through st, cfg.Runner times each leg,
// and the point carries the reducer's peak bytes. Legs share the team
// and the reducer, so a later leg's bytes include an earlier leg's peak.
// With cfg.Instrument each point also carries the counters accumulated
// while it was timed.
func sweep[T spray.Value](cfg ConvConfig, res *bench.Result, st spray.Strategy, out []T, legs ...leg[T]) {
	for _, th := range cfg.Threads {
		team := spray.NewTeam(th)
		r := spray.New(st, out, th)
		var in *spray.Instrumentation
		if cfg.Instrument {
			in = spray.Instrument(team, r)
		}
		for _, l := range legs {
			if in != nil {
				in.Reset()
			}
			p := bench.Point{
				X:     float64(th),
				Time:  cfg.Runner.AutoBench(func(iters int) { l.run(team, r, iters) }),
				Bytes: r.PeakBytes(), // read after the timed runs
			}
			if in != nil {
				rep := in.Report()
				p.Counters = rep.CounterMap()
				if cfg.OnReport != nil {
					cfg.OnReport(fmt.Sprintf("%s: %s t=%d", res.Title, l.series, th), rep)
				}
			}
			res.AddPoint(l.series, p)
		}
		if in != nil {
			in.Detach()
		}
		team.Close()
	}
}

// Fig12 reproduces Figure 12: best absolute run time per reduction
// implementation across all tested thread counts. It is derived from a
// Fig11 result rather than measured again, so the two figures agree by
// construction; fig11 is only read.
func Fig12(fig11 *bench.Result) *bench.Result {
	res := &bench.Result{
		Title:    "Figure 12: conv back-propagation best absolute time per implementation",
		XLabel:   "impl#",
		Baseline: fig11.Baseline,
		Notes: []string{
			"paper compares compilers x optimization levels; reproduced as best-per-strategy",
		},
	}
	for i, s := range fig11.Series {
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

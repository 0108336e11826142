package experiments

import (
	"fmt"

	"spray"
	"spray/internal/bench"
	"spray/internal/lulesh"
	"spray/internal/par"
	"spray/internal/stats"
)

// LuleshConfig parameterizes the shock-hydrodynamics experiment (§VI-C /
// Figure 16). The paper runs a 90³ mesh for 100 iterations; the default
// here is smaller so the sweep finishes on a laptop — pass Edge=90 to
// match the paper exactly.
type LuleshConfig struct {
	Edge    int
	Cycles  int
	Threads []int
	Schemes []string // force-scheme names: "original" or spray strategy names
	Runner  bench.Runner
}

// DefaultLuleshConfig returns the Figure 16 sweep.
func DefaultLuleshConfig(edge, cycles, maxThreads int) LuleshConfig {
	return LuleshConfig{
		Edge:    edge,
		Cycles:  cycles,
		Threads: bench.ThreadCounts(maxThreads),
		Schemes: []string{
			"original", "omp-builtin", "dense", "atomic",
			"block-lock-1024", "block-cas-1024", "keeper",
		},
		Runner: bench.DefaultRunner(),
	}
}

// luleshScheme resolves a scheme name.
func luleshScheme(name string) (lulesh.ForceScheme, error) {
	if name == "original" {
		return lulesh.Original(), nil
	}
	st, err := spray.ParseStrategy(name)
	if err != nil {
		return nil, err
	}
	return lulesh.Spray(st), nil
}

// Lulesh reproduces Figure 16: whole-application run time (left) and
// force-accumulation memory overhead (right, the Bytes column) for the
// original LULESH scheme and the SPRAY reducers across thread counts.
func Lulesh(cfg LuleshConfig) (*bench.Result, error) {
	res := &bench.Result{
		Title:  fmt.Sprintf("Figure 16: LULESH %d^3, %d cycles", cfg.Edge, cfg.Cycles),
		XLabel: "threads",
		Notes: []string{
			"time is the full application run, as printed by LULESH (paper §VI-C)",
			"memory is the force-accumulation scheme's peak overhead",
		},
	}
	params := lulesh.Defaults()
	params.MaxCycles = cfg.Cycles
	params.StopTime = 1e9 // cycle-bound, like the paper's fixed iteration count

	for _, name := range cfg.Schemes {
		for _, th := range cfg.Threads {
			fs, err := luleshScheme(name)
			if err != nil {
				return nil, err
			}
			summary, err := timeLulesh(cfg.Runner, th, cfg.Edge, params, fs)
			if err != nil {
				return nil, fmt.Errorf("scheme %s threads %d: %w", name, th, err)
			}
			res.AddPoint(fs.Name(), bench.Point{X: float64(th), Time: summary, Bytes: fs.PeakBytes()})
		}
	}
	return res, nil
}

// timeLulesh times whole mini-LULESH runs of fs on a team of th members
// under runner, like every other point: each run builds a fresh edge³
// domain and steps it to params' cycle limit.
func timeLulesh(runner bench.Runner, th, edge int, params lulesh.Params, fs lulesh.ForceScheme) (stats.Summary, error) {
	team := par.NewTeam(th)
	defer team.Close()
	var runErr error
	summary := runner.AutoBench(func(iters int) {
		for i := 0; i < iters; i++ {
			d := lulesh.New(edge, params)
			if _, err := d.Run(team, fs); err != nil && runErr == nil {
				runErr = err
			}
		}
	})
	return summary, runErr
}

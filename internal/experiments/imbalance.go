package experiments

import (
	"fmt"

	"spray"
	"spray/internal/bench"
	"spray/internal/lulesh"
	"spray/internal/sparse"
)

// The schedule comparison: the same reduction workload driven under each
// loop schedule, with the workloads chosen so the legs bracket the
// design space. Two legs are deliberately imbalanced — a synthetic
// front-loaded band (the worst case for guided, whose largest chunk
// lands exactly on the heavy region) and a transpose-matrix-vector
// product whose leading rows are much denser than the rest — one leg is
// a real application (mini-LULESH force accumulation), and one leg is
// deliberately uniform (conv back-propagation) where static's zero
// hand-out overhead is the bar a work-stealing runtime must not fall
// under. Series are named by schedule, so diffing runs compares
// schedules point-by-point per leg.
//
// On machines where the team is time-sliced over fewer cores than
// members (CI containers), wall time cannot show the balance win —
// the OS overlaps the straggler with everyone else — so what these legs
// measure there is the hand-out overhead ranking: steal's local deque
// pops against dynamic's contended claim cursor and static/guided's
// near-free arithmetic. The balance win needs real parallelism; see
// EXPERIMENTS.md.

// ImbalanceConfig parameterizes the schedule-comparison legs. The
// embedded ConvConfig sets the synthetic and conv iteration count (the
// TMV leg scales off N), the threads, the runner and the telemetry. Its
// first strategy is the reduction every leg accumulates through — the
// comparison varies the schedule, not the strategy — and its Schedule is
// unused: Schedules are the compared series, one per schedule string
// form.
type ImbalanceConfig struct {
	ConvConfig
	Edge      int // mini-LULESH mesh edge (elements per side)
	Cycles    int // mini-LULESH time-step count
	Schedules []spray.Schedule
}

// DefaultImbalanceConfig compares the four schedule kinds on the keeper
// strategy, with a mini mesh sized for CI gates rather than paper runs.
func DefaultImbalanceConfig(base ConvConfig) ImbalanceConfig {
	base.Strategies = []spray.Strategy{spray.Keeper()}
	return ImbalanceConfig{
		ConvConfig: base,
		Edge:       10,
		Cycles:     4,
		Schedules: []spray.Schedule{
			spray.Static(), spray.Dynamic(0), spray.Guided(0), spray.Steal(0),
		},
	}
}

// scheduleSweep measures one series per schedule: run receives the
// schedule its leg drives the loop under.
func scheduleSweep[T spray.Value](cfg ImbalanceConfig, res *bench.Result, out []T, run func(team *spray.Team, r spray.Reducer[T], sched spray.Schedule)) {
	for _, sched := range cfg.Schedules {
		sweep(cfg.ConvConfig, res, cfg.Strategies[0], out, leg[T]{sched.String(), func(team *spray.Team, r spray.Reducer[T], iters int) {
			for it := 0; it < iters; it++ {
				run(team, r, sched)
			}
		}})
	}
}

// imbalanceHeavyFrac is the leading fraction of the synthetic iteration
// space that carries the extra per-iteration work.
const imbalanceHeavyFrac = 8

// imbalanceHeavyWork is the extra flop count a heavy iteration runs; the
// recurrence is sequential on purpose so the compiler cannot collapse
// it, making a heavy iteration ~an order of magnitude costlier.
const imbalanceHeavyWork = 48

// heavyCost is the skewed per-iteration kernel: index-determined, so
// every schedule computes bitwise-identical values in any order.
func heavyCost(i, heavy int, v float64) float64 {
	if i >= heavy {
		return v
	}
	s := v
	for k := 0; k < imbalanceHeavyWork; k++ {
		s = s*0.999 + v
	}
	return s
}

// ImbalanceSkew is the synthetic front-loaded leg: iterations below
// N/imbalanceHeavyFrac cost ~10x the rest, all of them landing in the
// first static slice and in guided's first (largest) chunk. A balancing
// schedule redistributes the band; static and guided serialize it on one
// member.
func ImbalanceSkew(cfg ImbalanceConfig) *bench.Result {
	n := cfg.N
	heavy := n / imbalanceHeavyFrac
	res := &bench.Result{
		Title:  fmt.Sprintf("Schedule comparison: front-loaded skew (N=%d, heavy first %d)", n, heavy),
		XLabel: "threads",
		Notes: []string{
			fmt.Sprintf("iterations below %d run %dx the arithmetic of the rest", heavy, imbalanceHeavyWork),
			"strategy fixed at " + cfg.Strategies[0].String() + "; series vary the loop schedule only",
		},
	}
	in := make([]float64, n)
	for i := range in {
		in[i] = float64(i%7) + 1
	}
	out := make([]float64, n)
	scheduleSweep(cfg, res, out, func(team *spray.Team, r spray.Reducer[float64], sched spray.Schedule) {
		spray.RunReduction(team, r, 0, n, sched,
			func(acc spray.Accessor[float64], from, to int) {
				for i := from; i < to; i++ {
					acc.Add(i, heavyCost(i, heavy, in[i]))
				}
			})
	})
	return res
}

// skewedBanded builds a banded matrix whose first rows/imbalanceHeavyFrac
// rows carry heavyPerRow entries and the rest avgPerRow — the sparse
// analogue of the front-loaded synthetic: row cost (and so chunk cost)
// is concentrated at the start of the iteration space.
func skewedBanded(rows, avgPerRow, heavyPerRow, halfBand int, seed int64) *sparse.CSR[float32] {
	dense := sparse.Banded[float32](rows/imbalanceHeavyFrac, rows, heavyPerRow, halfBand, seed)
	rest := sparse.Banded[float32](rows-rows/imbalanceHeavyFrac, rows, avgPerRow, halfBand, seed+1)
	// Stack the dense block on top of the sparse remainder. The dense
	// block's band hugs its own (top) diagonal; the remainder's band is
	// shifted so its diagonal continues where the block ends.
	nr := dense.Rows + rest.Rows
	out := &sparse.CSR[float32]{
		Rows:   nr,
		Cols:   rows,
		RowPtr: make([]int64, nr+1),
		Col:    append(append([]int32{}, dense.Col...), rest.Col...),
		Val:    append(append([]float32{}, dense.Val...), rest.Val...),
	}
	copy(out.RowPtr, dense.RowPtr)
	base := dense.RowPtr[dense.Rows]
	for i := 1; i <= rest.Rows; i++ {
		out.RowPtr[dense.Rows+i] = base + rest.RowPtr[i]
	}
	return out
}

// ImbalanceTMV is the sparse leg: a transpose-matrix-vector product over
// a banded matrix whose leading rows are ~8x denser than the rest, so
// per-row work is front-loaded exactly like the synthetic leg but with
// real scatter traffic (and keeper ownership) attached.
func ImbalanceTMV(cfg ImbalanceConfig) *bench.Result {
	rows := cfg.N / 8
	if rows < 1024 {
		rows = 1024
	}
	a := skewedBanded(rows, 4, 32, 200, 7)
	res := &bench.Result{
		Title:  fmt.Sprintf("Schedule comparison: skewed banded TMV (%dx%d, %d nnz)", a.Rows, a.Cols, a.NNZ()),
		XLabel: "threads",
		Notes: []string{
			fmt.Sprintf("first %d rows are ~8x denser than the remaining %d", a.Rows/imbalanceHeavyFrac, a.Rows-a.Rows/imbalanceHeavyFrac),
			"strategy fixed at " + cfg.Strategies[0].String() + "; series vary the loop schedule only",
		},
	}
	x := vecOnes(a.Rows)
	y := make([]float32, a.Cols)
	scheduleSweep(cfg, res, y, func(team *spray.Team, r spray.Reducer[float32], sched spray.Schedule) {
		sparse.RunTMulVecSched(team, r, a, x, sched)
	})
	return res
}

// ImbalanceLulesh is the application leg: mini-LULESH force
// accumulation through lulesh.SpraySched, where per-element cost varies
// with mesh distortion as the shock propagates.
func ImbalanceLulesh(cfg ImbalanceConfig) (*bench.Result, error) {
	res := &bench.Result{
		Title:  fmt.Sprintf("Schedule comparison: LULESH %d^3, %d cycles", cfg.Edge, cfg.Cycles),
		XLabel: "threads",
		Notes: []string{
			"time is the full application run (lulesh.Run)",
			"strategy fixed at " + cfg.Strategies[0].String() + "; series vary the element-loop schedule only",
		},
	}
	params := lulesh.Defaults()
	params.MaxCycles = cfg.Cycles
	params.StopTime = 1e9
	for _, sched := range cfg.Schedules {
		for _, th := range cfg.Threads {
			fs := lulesh.SpraySched(cfg.Strategies[0], sched)
			summary, err := timeLulesh(cfg.Runner, th, cfg.Edge, params, fs)
			if err != nil {
				return nil, fmt.Errorf("schedule %s threads %d: %w", sched, th, err)
			}
			res.AddPoint(sched.String(), bench.Point{X: float64(th), Time: summary, Bytes: fs.PeakBytes()})
		}
	}
	return res, nil
}

// ImbalanceConv is the uniform control leg: every conv back-propagation
// iteration costs the same, so a balancing schedule has nothing to
// rebalance and the comparison isolates pure hand-out overhead — the
// leg where steal must stay within noise of static to be a safe default
// recommendation.
func ImbalanceConv(cfg ImbalanceConfig) *bench.Result {
	res := &bench.Result{
		Title:    fmt.Sprintf("Schedule comparison: uniform conv back-propagation (N=%d)", cfg.N),
		XLabel:   "threads",
		Baseline: ConvSequentialBaseline(cfg.ConvConfig),
		Notes: []string{
			"uniform per-iteration cost: the balanced control, schedules differ only in hand-out overhead",
			"strategy fixed at " + cfg.Strategies[0].String() + "; series vary the loop schedule only",
		},
	}
	seed := convData(cfg.N)
	out := make([]float32, cfg.N)
	scheduleSweep(cfg, res, out, func(team *spray.Team, r spray.Reducer[float32], sched spray.Schedule) {
		convWeights.RunBackpropSched(team, r, seed, sched)
	})
	return res
}

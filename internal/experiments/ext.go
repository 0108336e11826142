package experiments

import (
	"spray"
	"spray/internal/bench"
)

// Extensions reproduces no paper figure: it measures the beyond-paper
// strategies (ordered, compensated) against the relevant baselines
// on the convolution back-propagation kernel, so EXPERIMENTS.md can
// report their overheads with the same methodology as the paper figures.
func Extensions(cfg ConvConfig) *bench.Result {
	c := cfg
	c.Strategies = []spray.Strategy{
		spray.Dense(),       // baseline for compensated (same structure)
		spray.Compensated(), // + Kahan correction, 2x memory
		spray.Atomic(),
		spray.BlockCAS(1024),
		spray.Ordered(), // determinism at update-log memory cost
		spray.Keeper(),
	}
	res := Fig11(c)
	res.Title = "Extensions: ordered/compensated vs. baselines (conv back-propagation)"
	res.Notes = append(res.Notes,
		"ordered buys bitwise determinism with memory proportional to the update count",
		"compensated doubles dense's memory for compensated summation",
		"the bulk conv path pre-sums each tile's taps: every strategy receives one update per output per tile, so ordered logs and compensated corrects those sums, not each tap")
	return res
}

// Package conv implements the paper's first test case (§VI-A): a 1-D
// convolution (a trivially parallel stencil gather) and its
// back-propagation / reverse-mode derivative, which scatters each input's
// contribution to a neighborhood of output locations — the Figure 9 loop
// whose loop-carried reduction dependencies prevent naive parallelization
// and which SPRAY makes parallel with one wrapped array.
package conv

import (
	"fmt"

	"spray"
	"spray/internal/num"
)

// Weights3 is the 3-point stencil of the paper's kernel: left, center,
// right taps.
type Weights3[T num.Float] struct {
	WL, WC, WR T
}

// Forward computes the forward stencil out[i] = wl·in[i-1] + wc·in[i] +
// wr·in[i+1] for i in [1, n-1), a gather loop with no reduction.
func (w Weights3[T]) Forward(in, out []T) {
	checkSameLen(in, out)
	for i := 1; i < len(in)-1; i++ {
		out[i] = w.WL*in[i-1] + w.WC*in[i] + w.WR*in[i+1]
	}
}

// BackpropSeq is the sequential reverse-mode sweep (Figure 9): the
// adjoint of Forward, scattering seed[i] into out[i-1], out[i], out[i+1].
func (w Weights3[T]) BackpropSeq(seed, out []T) {
	checkSameLen(seed, out)
	for i := 1; i < len(seed)-1; i++ {
		s := seed[i]
		out[i-1] += w.WL * s
		out[i] += w.WC * s
		out[i+1] += w.WR * s
	}
}

// Backprop runs the Figure 9 scatter in parallel with the given SPRAY
// strategy and returns the reducer for its memory statistics.
func (w Weights3[T]) Backprop(team *spray.Team, st spray.Strategy, seed, out []T) spray.Reducer[T] {
	checkSameLen(seed, out)
	r := spray.New(st, out, team.Size())
	w.RunBackprop(team, r, seed)
	return r
}

// backpropTile sizes the scratch buffers of the bulk back-propagation:
// large enough to amortize the three per-tile bulk dispatches, small
// enough to stay cache-resident alongside the seed tile.
const backpropTile = 1024

// RunBackprop is the reusable-reducer form of Backprop for iterated
// training-style loops. It drives the reducer through the bulk fast
// path: each tile of iterations is turned into three scaled value runs
// (one per tap) pushed with AddN, so the strategy pays three dynamic
// dispatches per tile instead of three per element. Contributions to an
// output location arrive tap-by-tap instead of iteration-by-iteration —
// the same reassociation any vectorizing compiler applies to the Figure 9
// loop.
func (w Weights3[T]) RunBackprop(team *spray.Team, r spray.Reducer[T], seed []T) {
	w.RunBackpropSched(team, r, seed, spray.Static())
}

// RunBackpropSched is RunBackprop with the loop schedule exposed — the
// stencil sweep is uniform-cost, so it doubles as the balanced-workload
// leg of schedule comparisons (static should win; steal must stay within
// noise of it).
func (w Weights3[T]) RunBackpropSched(team *spray.Team, r spray.Reducer[T], seed []T, sched spray.Schedule) {
	n := len(seed)
	spray.RunReduction(team, r, 1, n-1, sched,
		func(acc spray.Accessor[T], from, to int) {
			bacc := spray.Bulk(acc)
			var vl, vc, vr [backpropTile]T
			for t0 := from; t0 < to; t0 += backpropTile {
				m := min(backpropTile, to-t0)
				tile := seed[t0 : t0+m]
				for j, s := range tile {
					vl[j] = w.WL * s
					vc[j] = w.WC * s
					vr[j] = w.WR * s
				}
				bacc.AddN(t0-1, vl[:m])
				bacc.AddN(t0, vc[:m])
				bacc.AddN(t0+1, vr[:m])
			}
		})
}

// RunBackpropIters runs iters back-propagation sweeps through one
// Reducer — the training-loop shape where the stencil geometry (and so
// every region's AddN pattern) is fixed across epochs while the seed
// values change. With a plan-compiled reducer the first sweep records
// the fixed tile pattern and later sweeps execute race-free, amortizing
// the compile exactly as MKL's inspector/executor amortizes inspection
// over repeated applications.
func (w Weights3[T]) RunBackpropIters(team *spray.Team, r spray.Reducer[T], seed []T, iters int) {
	for it := 0; it < iters; it++ {
		w.RunBackprop(team, r, seed)
	}
}

// RunBackpropEach is the element-wise form of RunBackprop — one Add per
// tap per iteration, the paper's original loop shape. Kept as the
// reference (and benchmark baseline) for the bulk path.
func (w Weights3[T]) RunBackpropEach(team *spray.Team, r spray.Reducer[T], seed []T) {
	n := len(seed)
	spray.RunReduction(team, r, 1, n-1, spray.Static(),
		func(acc spray.Accessor[T], from, to int) {
			for i := from; i < to; i++ {
				s := seed[i]
				acc.Add(i-1, w.WL*s)
				acc.Add(i, w.WC*s)
				acc.Add(i+1, w.WR*s)
			}
		})
}

// Stencil is a general odd-width 1-D stencil for the wider-radius tests:
// taps[r] is the center weight, taps has length 2r+1.
type Stencil[T num.Float] struct {
	Taps []T
}

// Radius returns the stencil half-width.
func (s Stencil[T]) Radius() int {
	if len(s.Taps) == 0 || len(s.Taps)%2 == 0 {
		panic(fmt.Sprintf("conv: stencil needs odd positive width, got %d taps", len(s.Taps)))
	}
	return len(s.Taps) / 2
}

// Forward computes the gather stencil over the interior.
func (s Stencil[T]) Forward(in, out []T) {
	checkSameLen(in, out)
	r := s.Radius()
	for i := r; i < len(in)-r; i++ {
		var sum T
		for j, w := range s.Taps {
			sum += w * in[i+j-r]
		}
		out[i] = sum
	}
}

// BackpropSeq is the sequential adjoint scatter of Forward.
func (s Stencil[T]) BackpropSeq(seed, out []T) {
	checkSameLen(seed, out)
	r := s.Radius()
	for i := r; i < len(seed)-r; i++ {
		sd := seed[i]
		for j, w := range s.Taps {
			out[i+j-r] += w * sd
		}
	}
}

// Backprop runs the adjoint scatter in parallel with the given strategy.
// Each iteration's tap fan-out is one contiguous run [i-r, i+r], so it is
// scaled into a scratch buffer and pushed with a single AddN.
func (s Stencil[T]) Backprop(team *spray.Team, st spray.Strategy, seed, out []T) spray.Reducer[T] {
	checkSameLen(seed, out)
	r := s.Radius()
	n := len(seed)
	red := spray.New(st, out, team.Size())
	spray.RunReduction(team, red, r, n-r, spray.Static(),
		func(acc spray.Accessor[T], from, to int) {
			bacc := spray.Bulk(acc)
			vals := make([]T, len(s.Taps))
			for i := from; i < to; i++ {
				sd := seed[i]
				for j, w := range s.Taps {
					vals[j] = w * sd
				}
				bacc.AddN(i-r, vals)
			}
		})
	return red
}

func checkSameLen[T num.Float](a, b []T) {
	if len(a) != len(b) {
		panic(fmt.Sprintf("conv: length mismatch %d vs %d", len(a), len(b)))
	}
	if len(a) < 3 {
		panic(fmt.Sprintf("conv: arrays too short (%d) for a stencil", len(a)))
	}
}

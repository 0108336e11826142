// Package conv implements the paper's first test case (§VI-A): a 1-D
// convolution (a trivially parallel stencil gather) and its
// back-propagation / reverse-mode derivative, which scatters each input's
// contribution to a neighborhood of output locations — the Figure 9 loop
// whose loop-carried reduction dependencies prevent naive parallelization
// and which SPRAY makes parallel with one wrapped array.
package conv

import (
	"fmt"
	"sync"

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

// backpropTile is the seed count of one bulk back-propagation tile:
// large enough to amortize the tile's one bulk dispatch, small enough to
// stay cache-resident alongside the seed tile.
const backpropTile = 1024

// RunBackprop is the reusable-reducer form of Backprop for iterated
// training-style loops. It drives the reducer through the bulk fast
// path: each tile of m seeds is combined into one run of the m+2 output
// locations it touches and pushed with one AddN, so the strategy sees
// one update per output per tile instead of one per tap. Each combined
// value sums its taps in the sequential loop's order (right, center,
// left tap), and the reducer adds the sum to the output — the same
// reassociation any vectorizing compiler applies to the Figure 9 loop.
// The two outputs at each tile edge also receive a partial sum from the
// neighboring tile.
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
			buf := getScratch[T](backpropTile + 2)
			defer scratch.Put(buf)
			for t0 := from; t0 < to; t0 += backpropTile {
				s := seed[t0:min(t0+backpropTile, to)]
				v := (*buf)[:len(s)+2]
				w.combine(v, s)
				bacc.AddN(t0-1, v)
			}
		})
}

// combine sets v[k], for the len(s)+2 outputs a tile of seeds s
// touches (out[t0-1+k] for a tile starting at seed t0), to the sum
// wr·s[k-2] + wc·s[k-1] + wl·s[k] of its taps in the sequential loop's
// order, where a and b carry s[k-2] and s[k-1] (zero before the tile).
// It gives the same sums as Stencil's per-tap passes with taps
// {WL, WC, WR} in one pass over the tile instead of three; with the
// per-tap passes conv-bulk's parallel speedup falls from ≈2.35× to ≈1.25×
// on a 2-vCPU host.
func (w Weights3[T]) combine(v, s []T) {
	var a, b T
	head := v[:len(s)]
	for k, x := range s {
		head[k] = w.WR*a + w.WC*b + w.WL*x
		a, b = b, x
	}
	v[len(s)] = w.WR*a + w.WC*b
	v[len(s)+1] = w.WR * b
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
// Each tile of m seeds is combined into one run over the m+2r outputs it
// touches, each summing its taps in the sequential loop's order, and
// pushed with a single AddN.
func (s Stencil[T]) Backprop(team *spray.Team, st spray.Strategy, seed, out []T) spray.Reducer[T] {
	checkSameLen(seed, out)
	r := s.Radius()
	red := spray.New(st, out, team.Size())
	spray.RunReduction(team, red, r, len(seed)-r, spray.Static(), s.backpropTiles(seed))
	return red
}

// backpropTiles is Backprop's loop body. Seed i adds Taps[j]·seed[i] to
// out[i+j-r], so out[t0-r+k] receives Taps[j]·seed[t0+k-j]; adding the
// taps from the last to the first adds each output's terms in ascending
// seed order, as BackpropSeq does.
func (s Stencil[T]) backpropTiles(seed []T) func(acc spray.Accessor[T], from, to int) {
	r := len(s.Taps) / 2
	return func(acc spray.Accessor[T], from, to int) {
		bacc := spray.Bulk(acc)
		buf := getScratch[T](backpropTile + 2*r)
		defer scratch.Put(buf)
		for t0 := from; t0 < to; t0 += backpropTile {
			sd := seed[t0:min(t0+backpropTile, to)]
			v := (*buf)[:len(sd)+2*r]
			clear(v)
			for j := 2 * r; j >= 0; j-- {
				addScaled(v[j:], s.Taps[j], sd)
			}
			bacc.AddN(t0-r, v)
		}
	}
}

// addScaled adds w·src[k] to dst[k] for every k; dst is at least as
// long as src.
func addScaled[T num.Float](dst []T, w T, src []T) {
	dst = dst[:len(src)]
	for k, x := range src {
		dst[k] += w * x
	}
}

// scratch recycles the back-propagations' per-chunk combine buffers
// (*[]T): they escape through the AddN interface call, so per-chunk
// slices would be heap-allocated every time. A buffer of another element
// type, or one too short, is dropped and a fresh one allocated.
var scratch sync.Pool

func getScratch[T num.Float](n int) *[]T {
	if p, ok := scratch.Get().(*[]T); ok && cap(*p) >= n {
		*p = (*p)[:n]
		return p
	}
	b := make([]T, n)
	return &b
}

func checkSameLen[T num.Float](a, b []T) {
	if len(a) != len(b) {
		panic(fmt.Sprintf("conv: length mismatch %d vs %d", len(a), len(b)))
	}
	if len(a) < 3 {
		panic(fmt.Sprintf("conv: arrays too short (%d) for a stencil", len(a)))
	}
}

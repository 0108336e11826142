package conv

import (
	"fmt"

	"spray"
	"spray/internal/num"
)

// Stencil2D is a 2-D cross/box stencil over a row-major rows×cols grid,
// the two-dimensional analogue of the paper's convolution test case. Its
// back-propagation scatters into a 2-D neighborhood, exercising the
// Reducer2D extension.
type Stencil2D[T num.Float] struct {
	// Taps maps (di+R, dj+R) to the weight of offset (di, dj); the
	// matrix must be square with odd side 2R+1.
	Taps [][]T
}

// Radius returns the stencil half-width and validates the tap matrix.
func (s Stencil2D[T]) Radius() int {
	k := len(s.Taps)
	if k == 0 || k%2 == 0 {
		panic(fmt.Sprintf("conv: 2-D stencil needs odd positive side, got %d", k))
	}
	for _, row := range s.Taps {
		if len(row) != k {
			panic("conv: 2-D stencil taps must be square")
		}
	}
	return k / 2
}

// Forward computes the gather stencil over the grid interior:
// out[i][j] = Σ taps[di][dj] · in[i+di-R][j+dj-R].
func (s Stencil2D[T]) Forward(in, out []T, rows, cols int) {
	checkGrid(in, out, rows, cols)
	r := s.Radius()
	for i := r; i < rows-r; i++ {
		for j := r; j < cols-r; j++ {
			var sum T
			for di := 0; di <= 2*r; di++ {
				for dj := 0; dj <= 2*r; dj++ {
					sum += s.Taps[di][dj] * in[(i+di-r)*cols+(j+dj-r)]
				}
			}
			out[i*cols+j] = sum
		}
	}
}

// BackpropSeq is the sequential adjoint scatter of Forward.
func (s Stencil2D[T]) BackpropSeq(seed, out []T, rows, cols int) {
	checkGrid(seed, out, rows, cols)
	r := s.Radius()
	for i := r; i < rows-r; i++ {
		for j := r; j < cols-r; j++ {
			sd := seed[i*cols+j]
			for di := 0; di <= 2*r; di++ {
				for dj := 0; dj <= 2*r; dj++ {
					out[(i+di-r)*cols+(j+dj-r)] += s.Taps[di][dj] * sd
				}
			}
		}
	}
}

// Backprop runs the adjoint scatter in parallel over rows through a 2-D
// SPRAY reducer with the given strategy.
func (s Stencil2D[T]) Backprop(team *spray.Team, st spray.Strategy, seed, out []T, rows, cols int) spray.Reducer2D[T] {
	checkGrid(seed, out, rows, cols)
	r := s.Radius()
	return spray.ReduceFor2D(team, st, out, rows, cols, r, rows-r, spray.Static(), s.backpropRows(seed, cols))
}

// backpropRows is Backprop's loop body. A chunk of seed rows touches the
// output rows from r above it to r below it; each output row's
// contributions are combined into one full-width run and pushed as one
// 2-D AddN. Seed (i, j) adds Taps[di][dj]·seed[i][j] to
// out[i+di-r][j+dj-r], so a row's run adds the seed rows in ascending
// order and, within each, the tap columns from the last to the first:
// each output's terms arrive in BackpropSeq's order.
func (s Stencil2D[T]) backpropRows(seed []T, cols int) func(acc spray.Accessor2D[T], fromRow, toRow int) {
	r := len(s.Taps) / 2
	return func(acc spray.Accessor2D[T], fromRow, toRow int) {
		if cols <= 2*r {
			return // no interior column, so no seed contributes
		}
		buf := getScratch[T](cols)
		defer scratch.Put(buf)
		v := *buf
		for o := fromRow - r; o < toRow+r; o++ {
			clear(v)
			for i := max(fromRow, o-r); i <= min(toRow-1, o+r); i++ {
				taps := s.Taps[o-i+r]
				sd := seed[i*cols+r : (i+1)*cols-r]
				for dj := 2 * r; dj >= 0; dj-- {
					addScaled(v[dj:], taps[dj], sd)
				}
			}
			acc.AddN(o, 0, v)
		}
	}
}

func checkGrid[T num.Float](a, b []T, rows, cols int) {
	if len(a) != rows*cols || len(b) != rows*cols {
		panic(fmt.Sprintf("conv: grid size mismatch: %d and %d elements for %dx%d", len(a), len(b), rows, cols))
	}
	if rows < 3 || cols < 3 {
		panic(fmt.Sprintf("conv: grid %dx%d too small for a stencil", rows, cols))
	}
}

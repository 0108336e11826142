package spray

import "fmt"

// Multi-dimensional support — the paper's §II limitation ("so far, SPRAY
// supports only one-dimensional arrays") and §IX outlook. A Reducer2D
// wraps a row-major rows×cols array and exposes 2-D indexing over any 1-D
// strategy; correctness follows directly from the 1-D reducer contract
// because the index mapping is a bijection.

// Accessor2D is the per-goroutine handle of a 2-D reduction.
type Accessor2D[T Value] struct {
	acc  BulkAccessor[T]
	cols int
}

// Add accumulates v into position (i, j).
func (a Accessor2D[T]) Add(i, j int, v T) { a.acc.Add(i*a.cols+j, v) }

// AddN accumulates a contiguous run within row i starting at column j:
// out[i][j+m] += vals[m]. The run must not cross the row boundary (that
// would silently wrap into the next row); it maps to a single 1-D AddN,
// so the underlying strategy's bulk fast path applies.
func (a Accessor2D[T]) AddN(i, j int, vals []T) { a.acc.AddN(i*a.cols+j, vals) }

// Done marks the end of this goroutine's updates for the region.
func (a Accessor2D[T]) Done() { a.acc.Done() }

// Reducer2D wraps a row-major matrix with a reduction strategy.
type Reducer2D[T Value] struct {
	r          Reducer[T]
	rows, cols int
}

// New2D constructs a 2-D reducer over the row-major matrix out (length
// rows*cols) for a team of the given size.
func New2D[T Value](st Strategy, out []T, rows, cols, threads int) Reducer2D[T] {
	if rows < 0 || cols < 0 || len(out) != rows*cols {
		panic(fmt.Sprintf("spray: New2D with %d elements for %dx%d", len(out), rows, cols))
	}
	return Reducer2D[T]{r: New(st, out, threads), rows: rows, cols: cols}
}

// Private returns the 2-D accessor for thread tid.
func (r Reducer2D[T]) Private(tid int) Accessor2D[T] {
	return Accessor2D[T]{acc: Bulk(r.r.Private(tid)), cols: r.cols}
}

// Finalize runs the underlying strategy's fix-up step serially.
func (r Reducer2D[T]) Finalize() { r.r.Finalize() }

// FinalizeWith runs the fix-up step using the team where possible.
func (r Reducer2D[T]) FinalizeWith(t *Team) { r.r.FinalizeWith(t) }

// Bytes reports the strategy's current extra memory.
func (r Reducer2D[T]) Bytes() int64 { return r.r.Bytes() }

// PeakBytes reports the strategy's extra-memory high-water mark.
func (r Reducer2D[T]) PeakBytes() int64 { return r.r.PeakBytes() }

// Name identifies the underlying strategy.
func (r Reducer2D[T]) Name() string { return r.r.Name() }

// Rows returns the wrapped matrix's row count.
func (r Reducer2D[T]) Rows() int { return r.rows }

// Cols returns the wrapped matrix's column count.
func (r Reducer2D[T]) Cols() int { return r.cols }

// ReduceFor2D runs one parallel region over the row range [rowLo, rowHi)
// of a rows×cols matrix: each team member receives a 2-D accessor and a
// chunk of rows. The matrix must have been wrapped with New2D using
// threads == t.Size().
func ReduceFor2D[T Value](t *Team, st Strategy, out []T, rows, cols, rowLo, rowHi int, s Schedule,
	body func(acc Accessor2D[T], fromRow, toRow int)) Reducer2D[T] {
	r := New2D(st, out, rows, cols, t.Size())
	RunReduction2D(t, r, rowLo, rowHi, s, body)
	return r
}

// RunReduction2D is the reusable-reducer form of ReduceFor2D. It is
// RunReduction over the row range with each chunk's accessor viewed in
// 2-D, so a 2-D reduction gets the same loop runtime as a 1-D one, the
// keeper's mid-region drain included.
func RunReduction2D[T Value](t *Team, r Reducer2D[T], rowLo, rowHi int, s Schedule,
	body func(acc Accessor2D[T], fromRow, toRow int)) {
	cols := r.cols
	RunReduction(t, r.r, rowLo, rowHi, s, func(acc Accessor[T], from, to int) {
		body(Accessor2D[T]{Bulk(acc), cols}, from, to)
	})
}

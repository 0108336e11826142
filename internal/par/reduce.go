package par

// Scalar reductions — sums, minima, maxima over an index range — need
// none of SPRAY's machinery (there is a single reduction location), only
// per-thread partials and a combine. These helpers give the repository's
// substrates (LULESH's time constraints, diagnostics) the OpenMP
// "reduction(min:...)" idiom.

// ScalarReduce runs body over chunks of [lo, hi) on the team, threading a
// per-member accumulator seeded by init, and combines the per-member
// results left to right (member 0 first, so the combine order is
// deterministic for deterministic schedules).
func ScalarReduce[V any](t *Team, lo, hi int, s Schedule, init V,
	body func(acc V, from, to int) V, combine func(a, b V) V) V {
	n := t.Size()
	partial := make([]V, n)
	c := t.Loop(s, lo, hi)
	t.Run(func(tid int) {
		acc := init
		c.For(tid, func(from, to int) {
			acc = body(acc, from, to)
		})
		partial[tid] = acc
	})
	out := init
	for _, p := range partial {
		out = combine(out, p)
	}
	return out
}

// SumFloat64 computes Σ f(i) for i in [lo, hi) in parallel.
func SumFloat64(t *Team, lo, hi int, f func(i int) float64) float64 {
	return ScalarReduce(t, lo, hi, Static(), 0.0,
		func(acc float64, from, to int) float64 {
			for i := from; i < to; i++ {
				acc += f(i)
			}
			return acc
		},
		func(a, b float64) float64 { return a + b })
}

// MinFloat64 computes min f(i) for i in [lo, hi) in parallel; the empty
// range returns +Inf semantics via the given init.
func MinFloat64(t *Team, lo, hi int, init float64, f func(i int) float64) float64 {
	return ScalarReduce(t, lo, hi, Static(), init,
		func(acc float64, from, to int) float64 {
			for i := from; i < to; i++ {
				if v := f(i); v < acc {
					acc = v
				}
			}
			return acc
		},
		func(a, b float64) float64 {
			if a < b {
				return a
			}
			return b
		})
}

// MaxFloat64 computes max f(i) for i in [lo, hi) in parallel.
func MaxFloat64(t *Team, lo, hi int, init float64, f func(i int) float64) float64 {
	return ScalarReduce(t, lo, hi, Static(), init,
		func(acc float64, from, to int) float64 {
			for i := from; i < to; i++ {
				if v := f(i); v > acc {
					acc = v
				}
			}
			return acc
		},
		func(a, b float64) float64 {
			if a > b {
				return a
			}
			return b
		})
}

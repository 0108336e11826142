package core

import (
	"testing"
	"time"

	"spray/internal/num"
)

// rawAtomicPrivate replicates atomicPrivate's uninstrumented method bodies
// with the telemetry nil-check gates deleted — the "pre-telemetry"
// baseline the overhead acceptance compares against. The bodies below must
// stay copies of the `p.tel == nil` branches in atomic.go.
type rawAtomicPrivate[T num.Float] struct{ out []T }

func (p *rawAtomicPrivate[T]) Add(i int, v T) { num.AtomicAdd(p.out, i, v) }

func (p *rawAtomicPrivate[T]) AddN(base int, vals []T) {
	dst := p.out[base : base+len(vals)]
	for j, v := range vals {
		num.AtomicAdd(dst, j, v)
	}
}

func (p *rawAtomicPrivate[T]) Scatter(idx []int32, vals []T) {
	out := p.out
	for j, i := range idx {
		num.AtomicAdd(out, int(i), vals[j])
	}
}

func (p *rawAtomicPrivate[T]) Done() {}

// driveOverheadBulk is the shared measurement body: tiled AddN plus a
// Scatter pass through the bulk interface, the per-thread shape of the
// BenchmarkBulk* workloads.
func driveOverheadBulk(acc BulkPrivate[float32], tile []float32, idx []int32, svals []float32, n, passes int) {
	for p := 0; p < passes; p++ {
		for base := 0; base+len(tile) <= n; base += len(tile) {
			acc.AddN(base, tile)
		}
		acc.Scatter(idx, svals)
	}
}

// TestTelemetryOffOverhead is the observability acceptance guard: with no
// recorder attached, an instrumented-but-off accessor must stay within 2%
// of a replica with the telemetry gates deleted. The atomic strategy makes
// the comparison measurable: both sides run the identical num.AtomicAdd
// per element over the *same* array (no allocator placement skew), so the
// only code difference is the per-batch nil-check gate, and the CAS cost
// per element dwarfs front-end effects that would drown a 2% budget on a
// plain add loop. The gate structure under test — one nil-check branch per
// accessor entry point — is the same in every strategy. Interleaved
// min-of-7 timing with retry attempts absorbs scheduler noise.
func TestTelemetryOffOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive")
	}
	const n, tileLen, passes = 1 << 12, 1024, 20
	tile := make([]float32, tileLen)
	for i := range tile {
		tile[i] = 1
	}
	idx := make([]int32, 512)
	svals := make([]float32, 512)
	for i := range idx {
		idx[i] = int32((i * 97) % n)
		svals[i] = 1
	}

	out := make([]float32, n)
	r := NewAtomic(out, 1) // telemetry off: Instrument never called
	gated := AsBulk(r.Private(0))
	raw := AsBulk(Private[float32](&rawAtomicPrivate[float32]{out: out}))

	const maxRatio = 1.02
	var ratio float64
	for attempt := 0; attempt < 5; attempt++ {
		bestGated, bestRaw := time.Duration(1<<62-1), time.Duration(1<<62-1)
		driveOverheadBulk(gated, tile, idx, svals, n, 2) // warm caches and predictors
		driveOverheadBulk(raw, tile, idx, svals, n, 2)
		for rep := 0; rep < 7; rep++ {
			start := time.Now()
			driveOverheadBulk(gated, tile, idx, svals, n, passes)
			if d := time.Since(start); d < bestGated {
				bestGated = d
			}
			start = time.Now()
			driveOverheadBulk(raw, tile, idx, svals, n, passes)
			if d := time.Since(start); d < bestRaw {
				bestRaw = d
			}
		}
		ratio = float64(bestGated) / float64(bestRaw)
		t.Logf("attempt %d: gated %v raw %v ratio %.4f", attempt, bestGated, bestRaw, ratio)
		if ratio <= maxRatio {
			return
		}
	}
	t.Errorf("telemetry-off accessor is %.2f%% slower than the ungated replica (budget 2%%)",
		100*(ratio-1))
}

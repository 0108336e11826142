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

// rawTieredPrivate replicates the telemetry-off tiered accessor's hot
// path with the gates deleted: the same tag-compare, accumulate-in-place
// and touched-bitmask writes, minus the nil-checked shard calls. The
// bodies must stay copies of the hot branches in tiered.go; the cold
// branch forwards to the bare atomic replica (the overhead drive below
// seeds the whole array hot, so it never runs).
type rawTieredPrivate[T num.Float] struct {
	inner     rawAtomicPrivate[T]
	shift     uint
	emask     int
	lineElems int
	slotMask  uint32
	tags      []int32
	masks     []uint16
	buf       []T
}

func newRawTiered[T num.Float](out []T, slots, lineElems int) *rawTieredPrivate[T] {
	shift := uint(0)
	for 1<<shift < lineElems {
		shift++
	}
	p := &rawTieredPrivate[T]{
		inner:     rawAtomicPrivate[T]{out: out},
		shift:     shift,
		emask:     lineElems - 1,
		lineElems: lineElems,
		slotMask:  uint32(slots - 1),
		tags:      make([]int32, slots),
		masks:     make([]uint16, slots),
		buf:       make([]T, slots*lineElems),
	}
	for s := range p.tags {
		p.tags[s] = int32(s) // identity seeding: line s in slot s
	}
	return p
}

func (p *rawTieredPrivate[T]) Add(i int, v T) {
	ln := int32(uint32(i) >> p.shift)
	s := uint32(ln) & p.slotMask
	if p.tags[s] == ln {
		off := i & p.emask
		p.buf[int(s)*p.lineElems+off] += v
		p.masks[s] |= 1 << uint(off)
		return
	}
	p.inner.Add(i, v)
}

func (p *rawTieredPrivate[T]) AddN(base int, vals []T) {
	for len(vals) > 0 {
		ln := int32(uint32(base) >> p.shift)
		s := uint32(ln) & p.slotMask
		n := p.lineElems - (base & p.emask)
		if n > len(vals) {
			n = len(vals)
		}
		if p.tags[s] == ln {
			off := base & p.emask
			b := int(s)*p.lineElems + off
			addInto(p.buf[b:b+n], vals[:n])
			p.masks[s] |= uint16((uint32(1)<<uint(n) - 1) << uint(off))
		} else {
			p.inner.AddN(base, vals[:n])
		}
		base += n
		vals = vals[n:]
	}
}

func (p *rawTieredPrivate[T]) Scatter(idx []int32, vals []T) {
	for j, i := range idx {
		ln := int32(uint32(i) >> p.shift)
		s := uint32(ln) & p.slotMask
		if p.tags[s] == ln {
			off := int(i) & p.emask
			p.buf[int(s)*p.lineElems+off] += vals[j]
			p.masks[s] |= 1 << uint(off)
			continue
		}
		p.inner.Add(int(i), vals[j])
	}
}

func (p *rawTieredPrivate[T]) Done() {}

// TestTelemetryOffOverheadTiered extends the overhead acceptance to the
// hot-set cache: with no recorder attached, the tiered accessor's hot
// path (nil-check gates in Add, the AddN run loop and the Scatter hot
// loop) must stay within 2% of the ungated replica. The array is fully
// covered by the seeded hot set with online rebalancing disabled, so
// both sides execute pure cache hits over identically-shaped storage.
func TestTelemetryOffOverheadTiered(t *testing.T) {
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
	tr := NewTiered(NewAtomic(out, 1), out, TieredConfig{Slots: 256, RebalanceEvery: -1})
	le := tr.LineElems()
	all := make([]int, (n+le-1)/le)
	for ln := range all {
		all[ln] = ln
	}
	tr.SeedHotLines(all) // whole array hot: every drive op is a cache hit
	gated := AsBulk(tr.Private(0))
	raw := AsBulk(Private[float32](newRawTiered[float32](out, tr.Slots(), le)))

	const maxRatio = 1.02
	var ratio float64
	for attempt := 0; attempt < 5; attempt++ {
		bestGated, bestRaw := time.Duration(1<<62-1), time.Duration(1<<62-1)
		driveOverheadBulk(gated, tile, idx, svals, n, 2)
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
	t.Errorf("telemetry-off tiered accessor is %.2f%% slower than the ungated replica (budget 2%%)",
		100*(ratio-1))
}

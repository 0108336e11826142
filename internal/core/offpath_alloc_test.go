package core

import "testing"

// TestOffPathSamplingGateNoAlloc guards the telemetry-off hot paths at
// the allocator level: with no recorder attached, the counter gates must
// not cause a single allocation per operation — the off path stays a nil
// check.
// (The off path's time budget is guarded separately by
// TestTelemetryOffOverhead.)
func TestOffPathSamplingGateNoAlloc(t *testing.T) {
	const n = 1 << 12
	vals := make([]float64, 64)
	for j := range vals {
		vals[j] = 1
	}
	idx := make([]int32, len(vals))
	for j := range idx {
		idx[j] = int32(j)
	}

	t.Run("atomic", func(t *testing.T) {
		a := NewAtomic(make([]float64, n), 1)
		acc := AsBulk(a.Private(0))
		assertNoAllocs(t, func() {
			acc.Add(7, 1)
			acc.AddN(128, vals)
			acc.Scatter(idx, vals)
		})
	})

	t.Run("block-cas", func(t *testing.T) {
		bl := NewBlock(make([]float64, n), 1, 256, BlockCAS)
		acc := AsBulk(bl.Private(0))
		assertNoAllocs(t, func() {
			acc.Add(7, 1)
			acc.AddN(512, vals) // resolves its block in the warm-up run
			acc.Scatter(idx, vals)
		})
	})

	t.Run("keeper-mailbox", func(t *testing.T) {
		// Publication threshold crossed every run, parcels recycled by the
		// owner's mid-region drain: the whole mailbox loop must be
		// allocation-free once the first parcels exist.
		k := NewKeeper(make([]float64, 4*keeperMailboxFlush), 2)
		k.EnableMidDrain(true)
		acc := AsBulk(k.Private(0))
		_ = k.Private(1)
		m := keeperMailboxFlush + 64
		foreign := make([]int32, m)
		fvals := make([]float64, m)
		for j := range foreign {
			foreign[j] = int32(2*keeperMailboxFlush + j%keeperMailboxFlush)
			fvals[j] = 1
		}
		assertNoAllocs(t, func() {
			acc.Scatter(foreign, fvals) // crosses the threshold -> publish
			k.DrainMid(1)               // apply + return the parcel
		})
	})

	t.Run("keeper-foreign", func(t *testing.T) {
		// Two-thread keeper driven from member 0 with updates into member
		// 1's range: the foreign enqueue path runs every iteration, and
		// Finalize drains the queues so their capacity — grown once in
		// the warm-up run — is reused.
		k := NewKeeper(make([]float64, n), 2)
		acc := AsBulk(k.Private(0))
		foreign := make([]int32, len(vals))
		for j := range foreign {
			foreign[j] = int32(n/2 + 128 + j)
		}
		assertNoAllocs(t, func() {
			acc.Add(n-5, 1)
			acc.AddN(n/2+512, vals)
			acc.Scatter(foreign, vals)
			k.Finalize()
		})
	})
}

func assertNoAllocs(t *testing.T, f func()) {
	t.Helper()
	if avg := testing.AllocsPerRun(200, f); avg != 0 {
		t.Errorf("uninstrumented path allocates %.2f times per run, want 0", avg)
	}
}

package core

import (
	"runtime"
	"sync"
	"testing"

	"spray/internal/par"
	"spray/internal/telemetry"
)

// allInstrumentable builds one reducer of every strategy for a small array
// and team, all sharing shape so they can be driven identically.
func allInstrumentable(out []float64, threads int) []Reducer[float64] {
	return []Reducer[float64]{
		NewDense(out, threads),
		NewBuiltin(out, threads),
		NewAtomic(out, threads),
		NewMap(out, threads),
		NewBTree(out, threads, 0),
		NewBlock(out, threads, 8, BlockPrivate),
		NewBlock(out, threads, 8, BlockLock),
		NewBlock(out, threads, 8, BlockCAS),
		NewKeeper(out, threads),
		NewOrdered(out, threads),
		NewAdaptive(out, threads, 8),
		NewCompensated(out, threads),
	}
}

// TestEveryStrategyIsInstrumentable asserts the package-wide contract: all
// reducers implement Instrumentable, record the three core counters
// (updates, bulk runs/elements) with exact values, and return to the
// uninstrumented state on Instrument(nil).
func TestEveryStrategyIsInstrumentable(t *testing.T) {
	const n, threads = 64, 2
	for _, r := range allInstrumentable(make([]float64, n), threads) {
		t.Run(r.Name(), func(t *testing.T) {
			in, ok := r.(Instrumentable)
			if !ok {
				t.Fatalf("%s does not implement Instrumentable", r.Name())
			}
			rec := telemetry.NewRecorder(r.Name(), threads)
			in.Instrument(rec)

			// Drive one region sequentially so counts are deterministic:
			// each tid does 4 element adds, one 8-run AddN, one 3-batch
			// Scatter.
			vals := []float64{1, 1, 1, 1, 1, 1, 1, 1}
			for tid := 0; tid < threads; tid++ {
				p := r.Private(tid)
				for i := 0; i < 4; i++ {
					p.Add(tid*16+i, 1)
				}
				bp := AsBulk(p)
				bp.AddN(tid*16+4, vals)
				bp.Scatter([]int32{0, 31, 63}, []float64{1, 1, 1})
				p.Done()
			}
			r.Finalize()

			snap := rec.Snapshot()
			if got := snap.Get(telemetry.Updates); got < uint64(threads*4) {
				t.Errorf("updates = %d, want >= %d", got, threads*4)
			}
			if got := snap.Get(telemetry.AddNRuns); got != uint64(threads) {
				t.Errorf("addn-runs = %d, want %d", got, threads)
			}
			if got := snap.Get(telemetry.ScatterRuns); got != uint64(threads) {
				t.Errorf("scatter-runs = %d, want %d", got, threads)
			}
			if got := snap.Get(telemetry.BulkElems); got != uint64(threads*(8+3)) {
				t.Errorf("bulk-elems = %d, want %d", got, threads*(8+3))
			}
			perThread := rec.PerThread()
			for tid, ps := range perThread {
				if ps.Total() == 0 {
					t.Errorf("tid %d shard recorded nothing", tid)
				}
			}

			// Detach: the next region must not move the counters.
			in.Instrument(nil)
			rec.Reset()
			for tid := 0; tid < threads; tid++ {
				p := r.Private(tid)
				p.Add(tid, 1)
				AsBulk(p).AddN(8, vals)
				p.Done()
			}
			r.Finalize()
			if got := rec.Snapshot().Total(); got != 0 {
				t.Errorf("detached reducer recorded %d events", got)
			}
		})
	}
}

// TestBlockCASCountersDeterministic drives block-cas sequentially so the
// claim outcome of every acquire is fixed: tid 0 claims the block in
// place, tid 1's claim CAS fails and it falls back to a private copy.
func TestBlockCASCountersDeterministic(t *testing.T) {
	const n, threads, bs = 64, 2, 8
	out := make([]float64, n)
	r := NewBlock(out, threads, bs, BlockCAS)
	rec := telemetry.NewRecorder(r.Name(), threads)
	r.Instrument(rec)

	p0 := r.Private(0)
	p1 := r.Private(1)
	p0.Add(3, 1)  // tid 0 claims block 0
	p1.Add(4, 1)  // tid 1 loses the claim -> fallback private block
	p1.Add(12, 1) // tid 1 claims block 1
	p0.Done()
	p1.Done()
	r.Finalize()

	snap := rec.Snapshot()
	if got := snap.Get(telemetry.BlockClaims); got != 2 {
		t.Errorf("block-claims = %d, want 2", got)
	}
	if got := snap.Get(telemetry.CASRetries); got != 1 {
		t.Errorf("cas-retries = %d, want 1", got)
	}
	if got := snap.Get(telemetry.BlockFallbacks); got != 1 {
		t.Errorf("block-fallbacks = %d, want 1", got)
	}
	if got := snap.Get(telemetry.PoolReuses); got != 0 {
		t.Errorf("pool-reuses = %d in the first region", got)
	}
	if out[3] != 1 || out[4] != 1 || out[12] != 1 {
		t.Errorf("results corrupted: %v", out[:16])
	}

	// Second region, same pattern: the fallback block must come from the
	// pool and Bytes must not grow.
	bytesBefore := r.Bytes()
	p0 = r.Private(0)
	p1 = r.Private(1)
	p0.Add(3, 1)
	p1.Add(4, 1)
	p0.Done()
	p1.Done()
	r.Finalize()
	if got := rec.Snapshot().Get(telemetry.PoolReuses); got != 1 {
		t.Errorf("pool-reuses = %d after reuse region, want 1", got)
	}
	if r.Bytes() != bytesBefore {
		t.Errorf("pooled region grew Bytes %d -> %d", bytesBefore, r.Bytes())
	}
}

// TestBlockPrivateCountsFallbacksAndPool checks the always-privatize mode:
// every first touch is a fallback, later regions reuse pooled buffers.
func TestBlockPrivateCountsFallbacksAndPool(t *testing.T) {
	const n, threads, bs = 64, 2, 8
	r := NewBlock(make([]float64, n), threads, bs, BlockPrivate)
	rec := telemetry.NewRecorder(r.Name(), threads)
	r.Instrument(rec)
	for region := 0; region < 2; region++ {
		for tid := 0; tid < threads; tid++ {
			p := r.Private(tid)
			p.Add(tid*8, 1)
			p.Done()
		}
		r.Finalize()
	}
	snap := rec.Snapshot()
	if got := snap.Get(telemetry.BlockClaims); got != 0 {
		t.Errorf("block-private claimed %d blocks", got)
	}
	if got := snap.Get(telemetry.BlockFallbacks); got != 4 {
		t.Errorf("block-fallbacks = %d, want 4 (2 tids x 2 regions)", got)
	}
	if got := snap.Get(telemetry.PoolReuses); got != 2 {
		t.Errorf("pool-reuses = %d, want 2 (second region)", got)
	}
}

// TestKeeperCountersSplitOwnership drives the keeper sequentially over a
// cross-owner pattern and checks the owned/foreign/drained split exactly.
func TestKeeperCountersSplitOwnership(t *testing.T) {
	const n, threads = 16, 2 // chunk = 8: tid 0 owns [0,8), tid 1 owns [8,16)
	out := make([]float64, n)
	r := NewKeeper(out, threads)
	rec := telemetry.NewRecorder(r.Name(), threads)
	r.Instrument(rec)

	p0 := r.Private(0)
	p1 := r.Private(1)
	p0.Add(1, 1)  // owned
	p0.Add(9, 1)  // foreign -> owner 1
	p0.Add(10, 1) // foreign -> owner 1
	p1.Add(9, 1)  // owned
	p1.Add(2, 1)  // foreign -> owner 0
	// Bulk: run [6,10) from tid 0 splits 2 owned + 2 foreign.
	AsBulk(p0).AddN(6, []float64{1, 1, 1, 1})
	// Scatter from tid 1: indices 3 (foreign) and 12 (owned).
	AsBulk(p1).Scatter([]int32{3, 12}, []float64{1, 1})
	p0.Done()
	p1.Done()
	r.Finalize()

	snap := rec.Snapshot()
	if got := snap.Get(telemetry.KeeperOwned); got != 2+2+1 {
		t.Errorf("keeper-owned = %d, want 5", got)
	}
	if got := snap.Get(telemetry.KeeperForeign); got != 3+2+1 {
		t.Errorf("keeper-foreign = %d, want 6", got)
	}
	if drained := snap.Get(telemetry.KeeperDrained); drained != snap.Get(telemetry.KeeperForeign) {
		t.Errorf("keeper-drained = %d, want every foreign enqueue (%d) applied",
			drained, snap.Get(telemetry.KeeperForeign))
	}
	var sum float64
	for _, v := range out {
		sum += v
	}
	if sum != 11 {
		t.Errorf("total mass %v, want 11", sum)
	}
}

// TestKeeperDrainedWithTeamFinalize checks the drain counter under the
// parallel fix-up: each owner is processed by one member, so the count
// must match the serial path.
func TestKeeperDrainedWithTeamFinalize(t *testing.T) {
	const n, threads = 32, 4
	team := par.NewTeam(threads)
	defer team.Close()
	r := NewKeeper(make([]float64, n), threads)
	rec := telemetry.NewRecorder(r.Name(), threads)
	r.Instrument(rec)
	team.Run(func(tid int) {
		p := r.Private(tid)
		for i := 0; i < n; i++ { // every member touches every index
			p.Add(i, 1)
		}
		p.Done()
	})
	r.FinalizeWith(team)
	snap := rec.Snapshot()
	// Each member owns chunk=8 of 32 indices: 8 owned, 24 foreign.
	if got := snap.Get(telemetry.KeeperOwned); got != uint64(threads*8) {
		t.Errorf("keeper-owned = %d, want %d", got, threads*8)
	}
	if got := snap.Get(telemetry.KeeperForeign); got != uint64(threads*24) {
		t.Errorf("keeper-foreign = %d, want %d", got, threads*24)
	}
	if got := snap.Get(telemetry.KeeperDrained); got != snap.Get(telemetry.KeeperForeign) {
		t.Errorf("keeper-drained = %d, want %d", got, snap.Get(telemetry.KeeperForeign))
	}
}

// TestAtomicCASRetryCounting verifies the retry plumbing end to end under
// real contention: many goroutines hammering one element must record at
// least one lost CAS, and the sum must stay exact. The writers start
// behind a barrier so their loops overlap, and the region repeats (a
// bounded number of times) until one round interleaves — a single round
// can still run its writers back to back when the scheduler deschedules
// them, which is not a plumbing failure. On a loaded host a round only
// interleaves when the OS runs two writers at once, so the bound is
// generous; a passing run usually stops after the first round.
func TestAtomicCASRetryCounting(t *testing.T) {
	const threads, per, maxRounds = 4, 20000, 1000
	team := par.NewTeam(threads)
	defer team.Close()
	for round := 1; ; round++ {
		out := make([]float64, 4)
		r := NewAtomic(out, threads)
		rec := telemetry.NewRecorder(r.Name(), threads)
		r.Instrument(rec)
		var start sync.WaitGroup
		start.Add(threads)
		team.Run(func(tid int) {
			p := r.Private(tid)
			start.Done()
			start.Wait()
			for i := 0; i < per; i++ {
				p.Add(0, 1) // single hot element
			}
			p.Done()
		})
		r.Finalize()
		if out[0] != threads*per {
			t.Fatalf("round %d: sum %v, want %d (instrumented CAS dropped updates)", round, out[0], threads*per)
		}
		snap := rec.Snapshot()
		if got := snap.Get(telemetry.Updates); got != threads*per {
			t.Fatalf("round %d: updates = %d, want %d", round, got, threads*per)
		}
		// Lost CASes require true parallelism; on a single-core runner the
		// goroutines serialize and zero retries is the correct reading.
		if runtime.GOMAXPROCS(0) == 1 || snap.Get(telemetry.CASRetries) > 0 {
			return
		}
		if round == maxRounds {
			t.Fatalf("no CAS retries recorded in %d rounds on a single hot element with %d writers", maxRounds, threads)
		}
	}
}

// TestAdaptiveEscalationCounter checks that hammering one block records
// exactly the expected escalations and the atomic->private crossover keeps
// the result intact.
func TestAdaptiveEscalationCounter(t *testing.T) {
	const n, bs = 64, 8
	out := make([]float64, n)
	r := NewAdaptive(out, 1, bs)
	rec := telemetry.NewRecorder(r.Name(), 1)
	r.Instrument(rec)
	p := r.Private(0)
	const hits = 100 // far past the bs>>2 threshold for block 0
	for i := 0; i < hits; i++ {
		p.Add(0, 1)
	}
	p.Done()
	r.Finalize()
	snap := rec.Snapshot()
	if got := snap.Get(telemetry.Escalations); got != 1 {
		t.Errorf("escalations = %d, want 1", got)
	}
	if got := snap.Get(telemetry.Updates); got != hits {
		t.Errorf("updates = %d, want %d", got, hits)
	}
	if out[0] != hits {
		t.Errorf("out[0] = %v, want %d", out[0], hits)
	}
}

// TestEntryCounters checks the map, btree and ordered entry accounting.
func TestEntryCounters(t *testing.T) {
	const n = 32
	for _, tc := range []struct {
		r    Reducer[float64]
		want uint64
	}{
		{NewMap(make([]float64, n), 1), 3},      // 3 distinct keys
		{NewBTree(make([]float64, n), 1, 0), 3}, // 3 distinct keys
		{NewOrdered(make([]float64, n), 1), 4},  // 4 log records
	} {
		rec := telemetry.NewRecorder(tc.r.Name(), 1)
		tc.r.(Instrumentable).Instrument(rec)
		p := tc.r.Private(0)
		p.Add(1, 1)
		p.Add(2, 1)
		p.Add(2, 1) // repeat key: new log record, same map/tree entry
		p.Add(30, 1)
		p.Done()
		tc.r.Finalize()
		if got := rec.Snapshot().Get(telemetry.Entries); got != tc.want {
			t.Errorf("%s entries = %d, want %d", tc.r.Name(), got, tc.want)
		}
	}
}

// TestInstrumentedResultsUnchanged runs the full update battery from
// core_test through instrumented reducers and compares against the serial
// reference — attaching telemetry must never perturb results.
func TestInstrumentedResultsUnchanged(t *testing.T) {
	const n, threads = 128, 4
	ups := genUpdates(7, 40, n, 6)
	want := seqApply(n, ups, 0)
	team := par.NewTeam(threads)
	defer team.Close()
	for _, mk := range []func(out []float64) Reducer[float64]{
		func(out []float64) Reducer[float64] { return NewDense(out, threads) },
		func(out []float64) Reducer[float64] { return NewAtomic(out, threads) },
		func(out []float64) Reducer[float64] { return NewBlock(out, threads, 16, BlockCAS) },
		func(out []float64) Reducer[float64] { return NewKeeper(out, threads) },
		func(out []float64) Reducer[float64] { return NewAdaptive(out, threads, 16) },
	} {
		out := make([]float64, n)
		r := mk(out)
		rec := telemetry.NewRecorder(r.Name(), threads)
		r.(Instrumentable).Instrument(rec)
		team.Run(func(tid int) {
			p := r.Private(tid)
			for u := tid; u < len(ups); u += threads {
				p.Add(ups[u].Idx, ups[u].Val)
			}
			p.Done()
		})
		r.FinalizeWith(team)
		for i := range out {
			if out[i] != want[i] {
				t.Errorf("%s: out[%d] = %v, want %v", r.Name(), i, out[i], want[i])
				break
			}
		}
		if got := rec.Snapshot().Get(telemetry.Updates); got != uint64(len(ups)) {
			t.Errorf("%s: updates = %d, want %d", r.Name(), got, len(ups))
		}
	}
}

// TestPoolAccountingAudits cross-checks the cross-region buffer pools
// against the memory counters: retained dense copies release to zero,
// keeper queue capacity stabilizes across identical regions, and pooled
// block fallbacks neither leak nor double-free charged bytes.
func TestPoolAccountingAudits(t *testing.T) {
	const n, threads = 256, 2

	t.Run("dense-retain-release", func(t *testing.T) {
		d := NewDense(make([]float64, n), threads)
		for region := 0; region < 3; region++ {
			for tid := 0; tid < threads; tid++ {
				d.Private(tid).Add(tid, 1)
			}
			d.Finalize()
		}
		want := int64(threads * n * 8)
		if d.Bytes() != want { // retained copies stay charged
			t.Errorf("retained bytes %d, want %d", d.Bytes(), want)
		}
		if d.PeakBytes() != want {
			t.Errorf("peak %d, want %d (no steady-state growth)", d.PeakBytes(), want)
		}
		d.Release()
		if d.Bytes() != 0 {
			t.Errorf("after Release: %d bytes still charged", d.Bytes())
		}
	})

	t.Run("keeper-capacity-stable", func(t *testing.T) {
		k := NewKeeper(make([]float64, n), threads)
		runRegion := func() {
			for tid := 0; tid < threads; tid++ {
				p := k.Private(tid)
				for i := 0; i < n; i += 2 { // half foreign for tid 1, half for tid 0
					p.Add(i, 1)
				}
				p.Done()
			}
			k.Finalize()
		}
		runRegion()
		after1 := k.Bytes()
		if after1 <= 0 {
			t.Fatalf("no queue capacity charged: %d", after1)
		}
		runRegion()
		if k.Bytes() != after1 { // identical region reuses retained capacity
			t.Errorf("capacity drifted across identical regions: %d -> %d", after1, k.Bytes())
		}
		if k.PeakBytes() < after1 {
			t.Errorf("peak %d below live %d", k.PeakBytes(), after1)
		}
	})

	t.Run("block-pool-stable", func(t *testing.T) {
		bl := NewBlock(make([]float64, n), threads, 16, BlockPrivate)
		runRegion := func() {
			for tid := 0; tid < threads; tid++ {
				p := bl.Private(tid)
				p.Add(0, 1)
				p.Add(100, 1)
				p.Done()
			}
			bl.Finalize()
		}
		runRegion()
		after1 := bl.Bytes()
		for region := 0; region < 3; region++ {
			runRegion()
		}
		if bl.Bytes() != after1 {
			t.Errorf("pooled fallback bytes drifted: %d -> %d", after1, bl.Bytes())
		}
		if bl.PeakBytes() != after1 {
			t.Errorf("peak %d, want %d (pool must prevent growth)", bl.PeakBytes(), after1)
		}
	})
}

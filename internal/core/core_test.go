package core

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"spray/internal/num"
	"spray/internal/par"
	"spray/internal/telemetry"
)

// update is one out[Idx] += Val contribution generated by iteration Iter.
type update struct {
	Iter int
	Idx  int
	Val  float64
}

// genUpdates builds a deterministic sparse update stream: iters loop
// iterations, each touching k indices in [0, n). Values are small integers
// so float addition is exact in any order and results can be compared with
// ==.
func genUpdates(seed int64, iters, n, k int) []update {
	rng := rand.New(rand.NewSource(seed))
	ups := make([]update, 0, iters*k)
	for it := 0; it < iters; it++ {
		for j := 0; j < k; j++ {
			var idx int
			switch j % 3 {
			case 0: // stencil-like: near the iteration counter
				idx = (it + j) % n
			case 1: // random: input-dependent pattern (paper Fig. 5)
				idx = rng.Intn(n)
			default: // clustered hot spot: contention
				idx = rng.Intn(1 + n/16)
			}
			ups = append(ups, update{Iter: it, Idx: idx, Val: float64(rng.Intn(9) - 4)})
		}
	}
	return ups
}

// seqApply computes the reference result.
func seqApply(n int, ups []update, init float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = init
	}
	for _, u := range ups {
		out[u.Idx] += u.Val
	}
	return out
}

// runReduction drives reducer r over the update stream with a real team:
// iterations are split statically, each member pushes its iterations'
// updates through its Private.
func runReduction(t *testing.T, team *par.Team, r Reducer[float64], iters int, ups []update) {
	t.Helper()
	// Bucket updates by iteration for the static split.
	byIter := make([][]update, iters)
	for _, u := range ups {
		byIter[u.Iter] = append(byIter[u.Iter], u)
	}
	team.Run(func(tid int) {
		from, to := par.StaticRange(0, iters, tid, team.Size())
		acc := r.Private(tid)
		for it := from; it < to; it++ {
			for _, u := range byIter[it] {
				acc.Add(u.Idx, u.Val)
			}
		}
		acc.Done()
	})
	r.Finalize()
}

// strategies returns named constructors for every reducer configuration
// under test.
func strategies(n int) map[string]func(out []float64, threads int) Reducer[float64] {
	m := map[string]func([]float64, int) Reducer[float64]{
		"builtin":     func(o []float64, th int) Reducer[float64] { return NewBuiltin(o, th) },
		"dense":       func(o []float64, th int) Reducer[float64] { return NewDense(o, th) },
		"atomic":      func(o []float64, th int) Reducer[float64] { return NewAtomic(o, th) },
		"map":         func(o []float64, th int) Reducer[float64] { return NewMap(o, th) },
		"btree":       func(o []float64, th int) Reducer[float64] { return NewBTree(o, th, 0) },
		"btree-2":     func(o []float64, th int) Reducer[float64] { return NewBTree(o, th, 2) },
		"keeper":      func(o []float64, th int) Reducer[float64] { return NewKeeper(o, th) },
		"ordered":     func(o []float64, th int) Reducer[float64] { return NewOrdered(o, th) },
		"compensated": func(o []float64, th int) Reducer[float64] { return NewCompensated(o, th) },
	}
	for _, bs := range []int{16, 64, 1024} {
		bs := bs
		m[fmt.Sprintf("block-private-%d", bs)] = func(o []float64, th int) Reducer[float64] {
			return NewBlock(o, th, bs, BlockPrivate)
		}
		m[fmt.Sprintf("block-lock-%d", bs)] = func(o []float64, th int) Reducer[float64] {
			return NewBlock(o, th, bs, BlockLock)
		}
		m[fmt.Sprintf("block-cas-%d", bs)] = func(o []float64, th int) Reducer[float64] {
			return NewBlock(o, th, bs, BlockCAS)
		}
	}
	return m
}

func TestAllStrategiesMatchSequential(t *testing.T) {
	const n, iters, k = 1000, 400, 3
	ups := genUpdates(1, iters, n, k)
	want := seqApply(n, ups, 1) // non-zero initial contents must be preserved
	for name, mk := range strategies(n) {
		for _, threads := range []int{1, 2, 5, 8} {
			team := par.NewTeam(threads)
			out := make([]float64, n)
			for i := range out {
				out[i] = 1
			}
			r := mk(out, threads)
			runReduction(t, team, r, iters, ups)
			team.Close()
			if d := num.MaxAbsDiff(out, want); d != 0 {
				t.Errorf("%s threads=%d: max diff %v", name, threads, d)
			}
		}
	}
}

func TestAllStrategiesProperty(t *testing.T) {
	f := func(seed int64, nRaw, itersRaw uint16, threadsRaw uint8) bool {
		n := int(nRaw)%900 + 100
		iters := int(itersRaw)%300 + 1
		threads := int(threadsRaw)%6 + 1
		ups := genUpdates(seed, iters, n, 2)
		want := seqApply(n, ups, 0)
		for name, mk := range strategies(n) {
			team := par.NewTeam(threads)
			out := make([]float64, n)
			r := mk(out, threads)
			runReduction(t, team, r, iters, ups)
			team.Close()
			if num.MaxAbsDiff(out, want) != 0 {
				t.Logf("strategy %s failed for n=%d iters=%d threads=%d", name, n, iters, threads)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

func TestReducerReuseAcrossRegions(t *testing.T) {
	const n, iters = 500, 150
	ups1 := genUpdates(10, iters, n, 2)
	ups2 := genUpdates(11, iters, n, 2)
	want := seqApply(n, append(append([]update{}, ups1...), ups2...), 0)
	for name, mk := range strategies(n) {
		team := par.NewTeam(4)
		out := make([]float64, n)
		r := mk(out, 4)
		runReduction(t, team, r, iters, ups1)
		runReduction(t, team, r, iters, ups2) // same reducer, second region
		team.Close()
		if d := num.MaxAbsDiff(out, want); d != 0 {
			t.Errorf("%s: reuse diff %v", name, d)
		}
	}
}

func TestParallelFinalizeMatchesSerial(t *testing.T) {
	const n, iters, threads = 800, 300, 4
	ups := genUpdates(3, iters, n, 3)
	want := seqApply(n, ups, 0)
	mks := map[string]func([]float64) Reducer[float64]{
		"dense":  func(o []float64) Reducer[float64] { return NewDense(o, threads) },
		"keeper": func(o []float64) Reducer[float64] { return NewKeeper(o, threads) },
	}
	for name, mk := range mks {
		team := par.NewTeam(threads)
		out := make([]float64, n)
		r := mk(out)
		byIter := make([][]update, iters)
		for _, u := range ups {
			byIter[u.Iter] = append(byIter[u.Iter], u)
		}
		team.Run(func(tid int) {
			from, to := par.StaticRange(0, iters, tid, threads)
			acc := r.Private(tid)
			for it := from; it < to; it++ {
				for _, u := range byIter[it] {
					acc.Add(u.Idx, u.Val)
				}
			}
			acc.Done()
		})
		r.FinalizeWith(team)
		team.Close()
		if d := num.MaxAbsDiff(out, want); d != 0 {
			t.Errorf("%s FinalizeWith: diff %v", name, d)
		}
	}
}

func TestDenseMemoryAccounting(t *testing.T) {
	const n, threads = 1000, 4
	out := make([]float64, n)
	d := NewDense(out, threads)
	if d.Bytes() != 0 {
		t.Errorf("fresh dense Bytes=%d", d.Bytes())
	}
	for tid := 0; tid < threads; tid++ {
		d.Private(tid)
	}
	want := int64(threads * n * 8)
	if d.Bytes() != want {
		t.Errorf("dense Bytes=%d, want %d", d.Bytes(), want)
	}
	// Finalize retains the private copies for the next region (buffer
	// pooling), so they stay charged until Release.
	d.Finalize()
	if d.Bytes() != want {
		t.Errorf("dense Bytes after Finalize=%d, want retained %d", d.Bytes(), want)
	}
	d.Release()
	if d.Bytes() != 0 {
		t.Errorf("dense Bytes after Release=%d", d.Bytes())
	}
	if d.PeakBytes() != want {
		t.Errorf("dense Peak=%d, want %d", d.PeakBytes(), want)
	}
}

func TestBuiltinMemoryPeak(t *testing.T) {
	const n, threads = 2048, 4
	out := make([]float64, n)
	team := par.NewTeam(threads)
	defer team.Close()
	b := NewBuiltin(out, threads)
	team.Run(func(tid int) {
		acc := b.Private(tid)
		acc.Add(tid, 1)
		team.Barrier() // ensure all four copies coexist
		acc.Done()
	})
	b.Finalize()
	if b.Bytes() != 0 {
		t.Errorf("builtin live bytes=%d", b.Bytes())
	}
	if want := int64(threads * n * 8); b.PeakBytes() != want {
		t.Errorf("builtin peak=%d, want %d", b.PeakBytes(), want)
	}
}

func TestAtomicZeroOverhead(t *testing.T) {
	out := make([]float64, 100)
	a := NewAtomic(out, 8)
	a.Private(3).Add(5, 2)
	a.Finalize()
	if a.Bytes() != 0 || a.PeakBytes() != 0 {
		t.Errorf("atomic overhead %d/%d", a.Bytes(), a.PeakBytes())
	}
	if out[5] != 2 {
		t.Errorf("atomic missed update: %v", out[5])
	}
}

func TestBlockMemoryBoundedByTouch(t *testing.T) {
	// A thread touching one element must allocate at most one block (plus
	// its pointer table), never the whole array.
	const n, bs, threads = 1 << 20, 1024, 4
	out := make([]float64, n)
	bl := NewBlock(out, threads, bs, BlockPrivate)
	acc := bl.Private(0)
	acc.Add(123456, 1)
	acc.Done()
	table := int64((n / bs) * 24) // one slice header per block
	maxExpected := table + bs*8
	if bl.Bytes() > maxExpected {
		t.Errorf("block-private bytes=%d, want <= %d", bl.Bytes(), maxExpected)
	}
	bl.Finalize()
	if out[123456] != 1 {
		t.Errorf("block merge lost update: %v", out[123456])
	}
}

func TestBlockDirectOwnershipWritesInPlace(t *testing.T) {
	// In CAS mode a single thread must claim blocks directly in the
	// original array: no fallback allocations at all.
	const n, bs = 4096, 256
	out := make([]float64, n)
	bl := NewBlock(out, 1, bs, BlockCAS)
	acc := bl.Private(0)
	for i := 0; i < n; i++ {
		acc.Add(i, 1)
	}
	acc.Done()
	table := int64((n / bs) * 24)
	if bl.Bytes() != table {
		t.Errorf("cas single-thread bytes=%d, want table only %d", bl.Bytes(), table)
	}
	bl.Finalize()
	for i := 0; i < n; i++ {
		if out[i] != 1 {
			t.Fatalf("out[%d]=%v", i, out[i])
		}
	}
}

func TestBlockOwnershipResetBetweenRegions(t *testing.T) {
	const n, bs, threads = 512, 64, 2
	out := make([]float64, n)
	team := par.NewTeam(threads)
	defer team.Close()
	bl := NewBlock(out, threads, bs, BlockCAS)
	for region := 0; region < 3; region++ {
		team.Run(func(tid int) {
			acc := bl.Private(tid)
			for i := tid; i < n; i += threads {
				acc.Add(i, 1)
			}
			acc.Done()
		})
		bl.Finalize()
	}
	for i := 0; i < n; i++ {
		if out[i] != 3 {
			t.Fatalf("out[%d]=%v, want 3", i, out[i])
		}
	}
}

func TestBlockRejectsNonPowerOfTwo(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("non-power-of-two block size did not panic")
		}
	}()
	NewBlock(make([]float64, 10), 1, 100, BlockCAS)
}

func TestBlockPartialLastBlock(t *testing.T) {
	// Array length not a multiple of the block size: last block is short.
	const n, bs = 100, 64
	for _, mode := range []BlockMode{BlockPrivate, BlockLock, BlockCAS} {
		out := make([]float64, n)
		bl := NewBlock(out, 1, bs, mode)
		acc := bl.Private(0)
		acc.Add(n-1, 5)
		acc.Add(0, 3)
		acc.Done()
		bl.Finalize()
		if out[n-1] != 5 || out[0] != 3 {
			t.Errorf("%v: edge updates lost: %v %v", mode, out[0], out[n-1])
		}
	}
}

func TestKeeperOwnerMapping(t *testing.T) {
	out := make([]float64, 100)
	k := NewKeeper(out, 4)
	// chunk = 25: owner boundaries at 25, 50, 75.
	cases := map[int]int{0: 0, 24: 0, 25: 1, 49: 1, 50: 2, 99: 3}
	for i, want := range cases {
		if got := k.Owner(i); got != want {
			t.Errorf("Owner(%d)=%d, want %d", i, got, want)
		}
	}
}

func TestKeeperMoreThreadsThanElements(t *testing.T) {
	const n, threads = 3, 8
	out := make([]float64, n)
	team := par.NewTeam(threads)
	defer team.Close()
	k := NewKeeper(out, threads)
	team.Run(func(tid int) {
		acc := k.Private(tid)
		acc.Add(tid%n, 1)
		acc.Done()
	})
	k.Finalize()
	var sum float64
	for _, v := range out {
		sum += v
	}
	if sum != threads {
		t.Errorf("sum=%v, want %v", sum, threads)
	}
}

func TestKeeperQueueMemoryAccounted(t *testing.T) {
	const n, threads = 100, 4
	out := make([]float64, n)
	k := NewKeeper(out, threads)
	acc := k.Private(0)
	for i := 0; i < n; i++ {
		acc.Add(i, 1) // 75 of these are foreign to owner 0
	}
	acc.Done()
	if k.Bytes() < 75*(4+8) {
		t.Errorf("keeper bytes=%d, want >= %d", k.Bytes(), 75*12)
	}
	// Queue capacity is retained (and stays charged) across Finalize so
	// the next region reuses it without reallocating.
	before := k.Bytes()
	k.Finalize()
	if k.Bytes() != before {
		t.Errorf("keeper bytes after Finalize=%d, want retained %d", k.Bytes(), before)
	}
}

func TestMapAndBTreeMemoryProportionalToTouched(t *testing.T) {
	const n = 1 << 18
	out := make([]float64, n)
	for _, mk := range []func() Reducer[float64]{
		func() Reducer[float64] { return NewMap(out, 1) },
		func() Reducer[float64] { return NewBTree(out, 1, 0) },
	} {
		r := mk()
		acc := r.Private(0)
		for i := 0; i < 100; i++ {
			acc.Add(i*512, 1)
		}
		acc.Done()
		if r.Bytes() <= 0 {
			t.Errorf("%s: no bytes accounted", r.Name())
		}
		if r.Bytes() > int64(n) { // far below a dense copy (n*8 bytes)
			t.Errorf("%s: bytes=%d not sparse", r.Name(), r.Bytes())
		}
		r.Finalize()
	}
}

func TestNamesAreStable(t *testing.T) {
	out := make([]float64, 8)
	want := map[string]Reducer[float64]{
		"omp-builtin":      NewBuiltin(out, 1),
		"dense":            NewDense(out, 1),
		"atomic":           NewAtomic(out, 1),
		"map":              NewMap(out, 1),
		"btree":            NewBTree(out, 1, 0),
		"btree-4":          NewBTree(out, 1, 4),
		"block-private-64": NewBlock(out, 1, 64, BlockPrivate),
		"block-lock-64":    NewBlock(out, 1, 64, BlockLock),
		"block-cas-64":     NewBlock(out, 1, 64, BlockCAS),
		"keeper":           NewKeeper(out, 1),
	}
	for name, r := range want {
		if r.Name() != name {
			t.Errorf("Name()=%q, want %q", r.Name(), name)
		}
		if r.Threads() != 1 {
			t.Errorf("%s Threads()=%d", name, r.Threads())
		}
	}
}

func TestValidatePanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"zero threads": func() { NewDense(make([]float64, 4), 0) },
		"nil target":   func() { NewAtomic[float64](nil, 2) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestFloat32Strategies(t *testing.T) {
	const n, iters, threads = 300, 100, 3
	rng := rand.New(rand.NewSource(7))
	type up32 struct {
		it, idx int
		val     float32
	}
	var ups []up32
	for it := 0; it < iters; it++ {
		ups = append(ups,
			up32{it, rng.Intn(n), float32(rng.Intn(5))},
			up32{it, (it * 3) % n, 1})
	}
	want := make([]float32, n)
	for _, u := range ups {
		want[u.idx] += u.val
	}
	mks := map[string]func([]float32) Reducer[float32]{
		"atomic":    func(o []float32) Reducer[float32] { return NewAtomic(o, threads) },
		"dense":     func(o []float32) Reducer[float32] { return NewDense(o, threads) },
		"block-cas": func(o []float32) Reducer[float32] { return NewBlock(o, threads, 64, BlockCAS) },
		"keeper":    func(o []float32) Reducer[float32] { return NewKeeper(o, threads) },
		"map":       func(o []float32) Reducer[float32] { return NewMap(o, threads) },
		"btree":     func(o []float32) Reducer[float32] { return NewBTree(o, threads, 0) },
	}
	byIter := make([][]up32, iters)
	for _, u := range ups {
		byIter[u.it] = append(byIter[u.it], u)
	}
	for name, mk := range mks {
		team := par.NewTeam(threads)
		out := make([]float32, n)
		r := mk(out)
		team.Run(func(tid int) {
			from, to := par.StaticRange(0, iters, tid, threads)
			acc := r.Private(tid)
			for it := from; it < to; it++ {
				for _, u := range byIter[it] {
					acc.Add(u.idx, u.val)
				}
			}
			acc.Done()
		})
		r.Finalize()
		team.Close()
		if d := num.MaxAbsDiff(out, want); d != 0 {
			t.Errorf("float32 %s: diff %v", name, d)
		}
	}
}

// keeperForeignStream builds a scatter batch entirely inside owner 1's
// range of a 2-thread keeper over [0, 2*chunk).
func keeperForeignStream(chunk, m int, seed int64) ([]int32, []float64) {
	rng := rand.New(rand.NewSource(seed))
	idx := make([]int32, m)
	vals := make([]float64, m)
	for j := range idx {
		idx[j] = int32(chunk + rng.Intn(chunk))
		vals[j] = float64(rng.Intn(9) - 4)
	}
	return idx, vals
}

// TestKeeperMailboxPublishAndDrain exercises the full mid-region path
// sequentially: publication at the queue threshold, the owner's mailbox
// drain between chunks, the finalize sweep of late parcels, and parcel
// recycling — with result correctness and exact capacity retention
// across regions.
func TestKeeperMailboxPublishAndDrain(t *testing.T) {
	const threads, chunk = 2, 4096
	const n = threads * chunk
	out := make([]float64, n)
	k := NewKeeper(out, threads)
	k.EnableMidDrain(true)

	idx, vals := keeperForeignStream(chunk, 3*keeperMailboxFlush, 5)
	want := make([]float64, n)
	for j, i := range idx {
		want[i] += vals[j]
	}

	region := func() {
		a0 := AsBulk(k.Private(0))
		a1 := AsBulk(k.Private(1))
		half := len(idx) / 2
		a0.Scatter(idx[:half], vals[:half]) // publishes at least one parcel
		k.DrainMid(1)                       // owner applies inbound parcels mid-region
		a0.Scatter(idx[half:], vals[half:])
		a0.Done()
		a1.Done()
		k.Finalize() // sweeps parcels published after the drain
	}

	region()
	if d := num.MaxAbsDiff(out, want); d != 0 {
		t.Fatalf("mid-drain region diverged: max diff %v", d)
	}
	if k.Bytes() == 0 {
		t.Fatal("Bytes = 0 after publishing parcels; parcel capacity is not accounted")
	}

	// Regression (capacity-retention rule): parcels recycled through the
	// returns stacks must keep the second region's footprint exactly flat.
	bytes1, peak1 := k.Bytes(), k.PeakBytes()
	clear(out)
	region()
	if k.Bytes() != bytes1 || k.PeakBytes() != peak1 {
		t.Errorf("steady-state region grew keeper memory: bytes %d -> %d, peak %d -> %d",
			bytes1, k.Bytes(), peak1, k.PeakBytes())
	}
	if d := num.MaxAbsDiff(out, want); d != 0 {
		t.Fatalf("second region diverged: max diff %v", d)
	}
}

// TestKeeperMidDrainCutsPeakQueueBytes is the headline memory claim: with
// mid-region drains, peak queue+parcel memory is bounded by the
// publication threshold instead of the region's total foreign traffic.
func TestKeeperMidDrainCutsPeakQueueBytes(t *testing.T) {
	const threads, chunk = 2, 4096
	const n = threads * chunk
	const m = 16 * keeperMailboxFlush
	idx, vals := keeperForeignStream(chunk, m, 6)

	run := func(mid bool) int64 {
		out := make([]float64, n)
		k := NewKeeper(out, threads)
		k.EnableMidDrain(mid)
		a0 := AsBulk(k.Private(0))
		a1 := AsBulk(k.Private(1))
		const batch = 512
		for j := 0; j < m; j += batch {
			a0.Scatter(idx[j:j+batch], vals[j:j+batch])
			if mid && j%(4*batch) == 0 {
				k.DrainMid(1) // owner keeps up, parcels recycle
			}
		}
		a0.Done()
		a1.Done()
		k.Finalize()
		return k.PeakBytes()
	}

	peakOff, peakOn := run(false), run(true)
	if peakOn >= peakOff {
		t.Errorf("mid-region drain did not cut peak bytes: on=%d off=%d", peakOn, peakOff)
	}
	// The drained peak must be bounded by a few parcels plus the capped
	// queue, not by the full 16x-threshold foreign stream.
	if limit := int64(8 * keeperMailboxFlush * 12); peakOn > limit {
		t.Errorf("drained peak %d exceeds threshold-bound %d", peakOn, limit)
	}
}

// TestKeeperMidDrainTelemetry checks the drain counters: a mid-region
// drain must produce a keeper-midregion-drains event and count every
// drained request, and an idle drain must count nothing.
func TestKeeperMidDrainTelemetry(t *testing.T) {
	const threads, chunk = 2, 4096
	const n = threads * chunk
	idx, vals := keeperForeignStream(chunk, 2*keeperMailboxFlush, 7)

	out := make([]float64, n)
	k := NewKeeper(out, threads)
	rec := telemetry.NewRecorder(k.Name(), threads)
	k.Instrument(rec)
	k.EnableMidDrain(true)

	a0 := AsBulk(k.Private(0))
	a1 := AsBulk(k.Private(1))
	a0.Scatter(idx, vals)
	k.DrainMid(1)
	a0.Done()
	a1.Done()
	k.Finalize()

	snap := rec.Snapshot()
	if got := snap.Get(telemetry.KeeperMidDrains); got == 0 {
		t.Error("keeper-midregion-drains = 0 after a mid-region drain")
	}
	if got := snap.Get(telemetry.KeeperDrained); got != uint64(len(idx)) {
		t.Errorf("keeper-drained = %d, want %d", got, len(idx))
	}
	// An idle DrainMid must not bump the counter.
	before := rec.Snapshot().Get(telemetry.KeeperMidDrains)
	k.DrainMid(1)
	if got := rec.Snapshot().Get(telemetry.KeeperMidDrains); got != before {
		t.Errorf("empty DrainMid bumped the counter: %d -> %d", before, got)
	}
}

// TestConcurrentMailboxDrain drives the publish/drain protocol with a
// real team under the dynamic schedule so producers publish while owners
// drain concurrently — the race-detector coverage for the lock-free
// mailbox and returns stacks (run under -race via make race-telemetry).
func TestConcurrentMailboxDrain(t *testing.T) {
	const threads = 4
	const n = 1 << 14
	const iters = 64
	rng := rand.New(rand.NewSource(8))
	batches := make([][]int32, iters)
	bvals := make([][]float64, iters)
	want := make([]float64, n)
	for it := range batches {
		m := 256 + rng.Intn(512)
		idx := make([]int32, m)
		vals := make([]float64, m)
		for j := range idx {
			idx[j] = int32(rng.Intn(n))
			vals[j] = float64(rng.Intn(9) - 4)
			want[idx[j]] += vals[j]
		}
		batches[it], bvals[it] = idx, vals
	}

	for rep := 0; rep < 3; rep++ {
		out := make([]float64, n)
		k := NewKeeper(out, threads)
		rec := telemetry.NewRecorder(k.Name(), threads)
		k.Instrument(rec)
		k.EnableMidDrain(true)

		team := par.NewTeam(threads)
		c := team.Loop(par.Dynamic(1), 0, iters)
		c.SetChunkDone(k.DrainMid)
		team.Run(func(tid int) {
			acc := k.Private(tid)
			bacc := AsBulk(acc)
			c.For(tid, func(from, to int) {
				for it := from; it < to; it++ {
					bacc.Scatter(batches[it], bvals[it])
				}
			})
			acc.Done()
		})
		k.FinalizeWith(team)
		team.Close()

		if d := num.MaxAbsDiff(out, want); d != 0 {
			t.Fatalf("rep %d: concurrent mailbox run diverged: max diff %v", rep, d)
		}
	}
}

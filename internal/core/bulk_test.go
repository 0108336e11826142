package core

import (
	"math"
	"math/rand"
	"testing"

	"spray/internal/num"
	"spray/internal/par"
)

// bulkOp is one batched contribution: either a contiguous run starting at
// Base (Idx nil) or a gathered batch (Idx non-nil, Base ignored).
type bulkOp struct {
	Iter int
	Base int
	Idx  []int32
	Vals []float64
}

// genBulkOps builds a deterministic stream of mixed AddN/Scatter batches:
// iters iterations, each emitting one contiguous run and one gathered
// batch into [0, n). Values are small integers so addition is exact in
// any order.
func genBulkOps(seed int64, iters, n int) []bulkOp {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]bulkOp, 0, 2*iters)
	for it := 0; it < iters; it++ {
		// Contiguous run of 1..40 elements; long enough to span blocks.
		l := 1 + rng.Intn(40)
		base := rng.Intn(n - l + 1)
		vals := make([]float64, l)
		for j := range vals {
			vals[j] = float64(rng.Intn(9) - 4)
		}
		ops = append(ops, bulkOp{Iter: it, Base: base, Vals: vals})
		// Gathered batch of 1..16 indices, clustered half the time.
		k := 1 + rng.Intn(16)
		idx := make([]int32, k)
		sv := make([]float64, k)
		for j := range idx {
			if j%2 == 0 {
				idx[j] = int32(rng.Intn(n))
			} else {
				idx[j] = int32(rng.Intn(1 + n/16))
			}
			sv[j] = float64(rng.Intn(9) - 4)
		}
		ops = append(ops, bulkOp{Iter: it, Idx: idx, Vals: sv})
	}
	return ops
}

// applyElementwise pushes op through acc one Add at a time, in ascending
// batch order — the reference semantics of the bulk contract.
func applyElementwise(acc Private[float64], op bulkOp) {
	if op.Idx == nil {
		for j, v := range op.Vals {
			acc.Add(op.Base+j, v)
		}
		return
	}
	for j, i := range op.Idx {
		acc.Add(int(i), op.Vals[j])
	}
}

// applyBulk pushes op through the accessor's bulk entry points.
func applyBulk(acc BulkPrivate[float64], op bulkOp) {
	if op.Idx == nil {
		acc.AddN(op.Base, op.Vals)
		return
	}
	acc.Scatter(op.Idx, op.Vals)
}

// runBulkReduction drives r over the op stream with a real team, using
// the element-wise or the bulk path per the flag.
func runBulkReduction(t *testing.T, team *par.Team, r Reducer[float64], iters int, ops []bulkOp, bulk bool) {
	t.Helper()
	byIter := make([][]bulkOp, iters)
	for _, op := range ops {
		byIter[op.Iter] = append(byIter[op.Iter], op)
	}
	team.Run(func(tid int) {
		from, to := par.StaticRange(0, iters, tid, team.Size())
		acc := r.Private(tid)
		bacc := AsBulk(acc)
		for it := from; it < to; it++ {
			for _, op := range byIter[it] {
				if bulk {
					applyBulk(bacc, op)
				} else {
					applyElementwise(acc, op)
				}
			}
		}
		acc.Done()
	})
	r.Finalize()
}

// TestBulkMatchesElementwise proves the core bulk invariant for every
// strategy: a mixed AddN/Scatter stream produces exactly the result of
// the equivalent element-wise Add stream, at several team sizes. Integer
// values make float addition exact, so == is the right comparison even
// for strategies whose merge order differs across runs.
func TestBulkMatchesElementwise(t *testing.T) {
	const n, iters = 1200, 300
	ops := genBulkOps(42, iters, n)
	for name, mk := range strategies(n) {
		for _, threads := range []int{1, 3, 8} {
			outEach := make([]float64, n)
			outBulk := make([]float64, n)

			team := par.NewTeam(threads)
			runBulkReduction(t, team, mk(outEach, threads), iters, ops, false)
			team.Close()

			team = par.NewTeam(threads)
			runBulkReduction(t, team, mk(outBulk, threads), iters, ops, true)
			team.Close()

			if d := num.MaxAbsDiff(outEach, outBulk); d != 0 {
				t.Errorf("%s threads=%d: bulk diff %v", name, threads, d)
			}
		}
	}
}

// TestBulkBitwiseSingleThread proves the stronger bitwise form of the
// contract: on one thread (deterministic order for every strategy,
// including the compensated reducer's Kahan update sequence), bulk and
// element-wise application of rounding-sensitive values agree bit for
// bit.
func TestBulkBitwiseSingleThread(t *testing.T) {
	const n, iters = 600, 150
	rng := rand.New(rand.NewSource(9))
	ops := genBulkOps(9, iters, n)
	// Replace the integer values with rounding-hostile magnitudes so any
	// reassociation inside a bulk path would flip low-order bits.
	for oi := range ops {
		for j := range ops[oi].Vals {
			ops[oi].Vals[j] = (rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(13)-6))
		}
	}
	for name, mk := range strategies(n) {
		outEach := make([]float64, n)
		outBulk := make([]float64, n)

		team := par.NewTeam(1)
		runBulkReduction(t, team, mk(outEach, 1), iters, ops, false)
		team.Close()

		team = par.NewTeam(1)
		runBulkReduction(t, team, mk(outBulk, 1), iters, ops, true)
		team.Close()

		for i := range outEach {
			if math.Float64bits(outEach[i]) != math.Float64bits(outBulk[i]) {
				t.Errorf("%s: out[%d] bulk=%x each=%x", name,
					i, math.Float64bits(outBulk[i]), math.Float64bits(outEach[i]))
				break
			}
		}
	}
}

// TestBulkShimFallback checks that a third-party accessor implementing
// only Add still gets working AddN/Scatter through AsBulk.
type addOnlyPrivate struct{ out []float64 }

func (p *addOnlyPrivate) Add(i int, v float64) { p.out[i] += v }
func (p *addOnlyPrivate) Done()                {}

func TestBulkShimFallback(t *testing.T) {
	out := make([]float64, 10)
	b := AsBulk[float64](&addOnlyPrivate{out: out})
	b.AddN(2, []float64{1, 2, 3})
	b.Scatter([]int32{0, 9, 2}, []float64{5, 7, 10})
	want := []float64{5, 0, 11, 2, 3, 0, 0, 0, 0, 7}
	if d := num.MaxAbsDiff(out, want); d != 0 {
		t.Errorf("shim result %v, want %v", out, want)
	}
	// A native strategy accessor must come back unwrapped.
	dn := NewDense(out, 1)
	acc := dn.Private(0)
	if _, ok := AsBulk(acc).(*densePrivate[float64]); !ok {
		t.Errorf("AsBulk wrapped a native bulk accessor: %T", AsBulk(acc))
	}
}

// TestFinalizeWithAllStrategies runs a team-finalized reduction for every
// strategy — block's hash-partitioned parallel merge included — against
// the sequential reference.
func TestFinalizeWithAllStrategies(t *testing.T) {
	const n, iters, threads = 900, 250, 4
	ops := genBulkOps(5, iters, n)
	want := make([]float64, n)
	for _, op := range ops {
		if op.Idx == nil {
			for j, v := range op.Vals {
				want[op.Base+j] += v
			}
		} else {
			for j, i := range op.Idx {
				want[int(i)] += op.Vals[j]
			}
		}
	}
	byIter := make([][]bulkOp, iters)
	for _, op := range ops {
		byIter[op.Iter] = append(byIter[op.Iter], op)
	}
	for name, mk := range strategies(n) {
		team := par.NewTeam(threads)
		out := make([]float64, n)
		r := mk(out, threads)
		team.Run(func(tid int) {
			from, to := par.StaticRange(0, iters, tid, threads)
			acc := AsBulk(r.Private(tid))
			for it := from; it < to; it++ {
				for _, op := range byIter[it] {
					applyBulk(acc, op)
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

// TestValidateIndex32 pins the int32 guard shared by keeper, block, map,
// btree and ordered constructors: lengths above MaxInt32 must be rejected
// (they would silently truncate queue/key indices), MaxInt32 itself is
// fine.
func TestValidateIndex32(t *testing.T) {
	validateIndex32(0)
	validateIndex32(math.MaxInt32) // must not panic
	defer func() {
		if recover() == nil {
			t.Error("validateIndex32(MaxInt32+1) did not panic")
		}
	}()
	validateIndex32(math.MaxInt32 + 1)
}

// TestKeeperCapacityAccounting pins the capacity-based memory accounting:
// queue growth is charged when it happens (inside Add, before Done), Done
// reconciles to the exact capacity held, and capacity retained across
// regions stays charged so PeakBytes cannot under-report.
func TestKeeperCapacityAccounting(t *testing.T) {
	const n, threads = 400, 4
	out := make([]float64, n)
	k := NewKeeper(out, threads)

	acc := k.Private(0)
	for i := n / 4; i < n; i++ { // all foreign to owner 0
		acc.Add(i, 1)
	}
	if k.Bytes() == 0 {
		t.Fatal("queue growth not charged before Done")
	}
	acc.Done()
	// Done reconciles to exact capacity: 3 foreign queues, each holding
	// n/4 elements at 12 bytes each, possibly over-allocated by append.
	if min := int64(3 * (n / 4) * 12); k.Bytes() < min {
		t.Errorf("Bytes=%d after Done, want >= %d", k.Bytes(), min)
	}
	k.Finalize()
	retained := k.Bytes()
	if retained == 0 {
		t.Fatal("retained queue capacity not charged after Finalize")
	}

	// A second, smaller region must reuse the retained capacity without
	// growing the charge.
	acc = k.Private(0)
	for i := n / 4; i < n/2; i++ {
		acc.Add(i, 1)
	}
	acc.Done()
	if k.Bytes() != retained {
		t.Errorf("Bytes=%d after smaller second region, want unchanged %d", k.Bytes(), retained)
	}
	if k.PeakBytes() < retained {
		t.Errorf("PeakBytes=%d < retained %d", k.PeakBytes(), retained)
	}
	k.Finalize()
	want := seqApply(n, nil, 0)
	for i := n / 4; i < n; i++ {
		want[i]++
	}
	for i := n / 4; i < n/2; i++ {
		want[i]++
	}
	if d := num.MaxAbsDiff(out, want); d != 0 {
		t.Errorf("keeper result diff %v", d)
	}
}

// TestSteadyStateZeroAllocs pins the cross-region buffer pooling: after a
// warm-up region, a time loop driving the same reducer must perform zero
// allocations per region for the pooled strategies (dense retains its
// copies, block pools its fallback blocks, keeper keeps queue capacity).
func TestSteadyStateZeroAllocs(t *testing.T) {
	const n, threads = 2048, 4
	vals := make([]float64, 64)
	for name, mk := range map[string]func([]float64) Reducer[float64]{
		"dense":  func(o []float64) Reducer[float64] { return NewDense(o, threads) },
		"keeper": func(o []float64) Reducer[float64] { return NewKeeper(o, threads) },
		"block-private": func(o []float64) Reducer[float64] {
			return NewBlock(o, threads, 256, BlockPrivate)
		},
	} {
		out := make([]float64, n)
		r := mk(out)
		// Accessors are goroutine-affine, not goroutine-pinned: driving all
		// four sequentially from the test goroutine is legal and keeps
		// AllocsPerRun deterministic. Every thread sweeps the whole array,
		// so the keeper enqueues foreign updates and block privatizes
		// fallback copies.
		region := func() {
			for tid := 0; tid < threads; tid++ {
				acc := AsBulk(r.Private(tid))
				for base := 0; base < n; base += 128 {
					acc.AddN(base, vals)
				}
				acc.Done()
			}
			r.Finalize()
		}
		region() // warm up: first region allocates the pooled storage
		if allocs := testing.AllocsPerRun(5, region); allocs != 0 {
			t.Errorf("%s: %v allocs per steady-state region, want 0", name, allocs)
		}
	}
}

// TestBlockSteadyStateBytesFlat drives a team through repeated regions
// and asserts the block reducer's memory high-water stops growing after
// the first region: pooled fallback buffers are reused, not reallocated.
func TestBlockSteadyStateBytesFlat(t *testing.T) {
	// BlockPrivate mode: fallback allocation is deterministic (every
	// thread privatizes every block it touches), so the pool from region
	// one covers all later regions exactly. In the claiming modes the racy
	// ownership distribution shifts between regions and the per-thread
	// pools take a few regions to saturate.
	const n, bs, threads, regions = 1 << 14, 512, 4, 6
	out := make([]float64, n)
	team := par.NewTeam(threads)
	defer team.Close()
	bl := NewBlock(out, threads, bs, BlockPrivate)
	var peakAfterFirst int64
	for reg := 0; reg < regions; reg++ {
		team.Run(func(tid int) {
			acc := AsBulk(bl.Private(tid))
			// Every thread touches every block so most threads fall back.
			for base := 0; base < n; base += bs {
				acc.AddN(base, out[0:8])
			}
			acc.Done()
		})
		bl.FinalizeWith(team)
		if reg == 0 {
			peakAfterFirst = bl.PeakBytes()
		}
	}
	if bl.PeakBytes() != peakAfterFirst {
		t.Errorf("block peak grew across regions: first=%d final=%d", peakAfterFirst, bl.PeakBytes())
	}
}

// TestDenseReleaseThenReuse checks a released dense reducer can run again
// (it re-allocates lazily) and that Release is idempotent.
func TestDenseReleaseThenReuse(t *testing.T) {
	out := make([]float64, 64)
	d := NewDense(out, 2)
	d.Private(0).Add(3, 2)
	d.Finalize()
	d.Release()
	d.Release()
	if d.Bytes() != 0 {
		t.Fatalf("Bytes=%d after Release", d.Bytes())
	}
	d.Private(1).Add(3, 3)
	d.Finalize()
	if out[3] != 5 {
		t.Errorf("out[3]=%v, want 5", out[3])
	}
}

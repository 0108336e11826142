package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"spray/internal/num"
	"spray/internal/par"
	"spray/internal/telemetry"
)

// tieredCfgAggressive promotes on almost any repeat and rebalances
// constantly, so tests exercise promotion and eviction rather than the
// all-cold steady state.
var tieredCfgAggressive = TieredConfig{Slots: 8, RebalanceEvery: 32, PromoteMin: 1}

// TestTieredSeededHotSetAbsorbsHotLines seeds the cache with exactly the
// lines the region touches and checks the whole stream lands in the hot
// path: zero cold misses, every update a hot hit, and an exact result.
func TestTieredSeededHotSetAbsorbsHotLines(t *testing.T) {
	const n, threads, perThread = 1 << 12, 4, 5000
	out := make([]float64, n)
	tr := NewTiered(NewAtomic(out, threads), out, TieredConfig{Slots: 16, RebalanceEvery: -1})
	le := tr.LineElems()
	hotLines := []int{3, 17, 40, 41}
	tr.SeedHotLines(hotLines)
	rec := telemetry.NewRecorder(tr.Name(), threads)
	tr.Instrument(rec)

	want := make([]float64, n)
	team := par.NewTeam(threads)
	team.Run(func(tid int) {
		acc := tr.Private(tid)
		rng := rand.New(rand.NewSource(int64(tid)))
		for j := 0; j < perThread; j++ {
			ln := hotLines[rng.Intn(len(hotLines))]
			i := ln*le + rng.Intn(le)
			acc.Add(i, 1)
		}
		acc.Done()
	})
	tr.FinalizeWith(team)
	team.Close()
	for tid := 0; tid < threads; tid++ {
		rng := rand.New(rand.NewSource(int64(tid)))
		for j := 0; j < perThread; j++ {
			ln := hotLines[rng.Intn(len(hotLines))]
			want[ln*le+rng.Intn(le)]++
		}
	}
	if d := num.MaxAbsDiff(out, want); d != 0 {
		t.Fatalf("seeded hot run diverged: max diff %v", d)
	}
	snap := rec.Snapshot()
	if cold := snap.Get(telemetry.TieredColdMisses); cold != 0 {
		t.Errorf("seeded all-hot stream took %d cold misses", cold)
	}
	if hits := snap.Get(telemetry.TieredHotHits); hits != uint64(threads*perThread) {
		t.Errorf("hot hits = %d, want %d", hits, threads*perThread)
	}
	if promos := snap.Get(telemetry.TieredPromotions); promos != uint64(threads*len(hotLines)) {
		t.Errorf("promotions = %d, want %d (one per seeded line per thread)", promos, threads*len(hotLines))
	}
}

// TestTieredOnlinePromotionAdoptsSkew runs a skewed element-wise stream
// with no seeding and checks the online path promotes (hot hits appear),
// evicts under slot pressure, and stays exact.
func TestTieredOnlinePromotionAdoptsSkew(t *testing.T) {
	const n, threads, iters = 1 << 13, 3, 200
	out := make([]float64, n)
	tr := NewTiered(NewAtomic(out, threads), out, tieredCfgAggressive)
	rec := telemetry.NewRecorder(tr.Name(), threads)
	tr.Instrument(rec)
	le := tr.LineElems()

	// 90% of updates hit 24 lines (3x the 8 cache slots, forcing slot
	// competition and evictions), the rest are uniform.
	ups := genUpdates(21, iters, n, 4)
	for j := range ups {
		if j%10 != 0 {
			ups[j].Idx = ((j * 7) % 24) * le
		}
	}
	want := seqApply(n, ups, 0)
	team := par.NewTeam(threads)
	for region := 0; region < 3; region++ {
		runReduction(t, team, tr, iters, ups)
	}
	team.Close()
	for i := range want {
		want[i] *= 3
	}
	if d := num.MaxAbsDiff(out, want); d != 0 {
		t.Fatalf("online-promotion run diverged: max diff %v", d)
	}
	snap := rec.Snapshot()
	if snap.Get(telemetry.TieredPromotions) == 0 {
		t.Error("skewed stream produced no online promotions")
	}
	if snap.Get(telemetry.TieredHotHits) == 0 {
		t.Error("skewed stream produced no hot hits after promotion")
	}
	if snap.Get(telemetry.TieredEvictions) == 0 {
		t.Error("24 hot lines over 8 slots produced no evictions")
	}
}

// TestTieredChunkBoundaryPromotion drives the MidRegionDrainer hook the
// way RunReduction does and checks promotions happen at chunk
// boundaries even when the cold-miss trigger would not have fired.
func TestTieredChunkBoundaryPromotion(t *testing.T) {
	const n, threads, iters = 1 << 12, 2, 400
	out := make([]float64, n)
	// RebalanceEvery too large for the cold-count trigger: promotions can
	// only come from DrainMid.
	tr := NewTiered(NewAtomic(out, threads), out, TieredConfig{Slots: 8, RebalanceEvery: 1 << 30, PromoteMin: 1})
	rec := telemetry.NewRecorder(tr.Name(), threads)
	tr.Instrument(rec)

	want := make([]float64, n)
	hotIdx := 5 * tr.LineElems()
	tr.EnableMidDrain(true)
	team := par.NewTeam(threads)
	c := par.NewChunker(par.StaticChunk(16), 0, iters, threads)
	c.SetChunkDone(tr.DrainMid)
	team.Run(func(tid int) {
		acc := tr.Private(tid)
		c.For(tid, func(from, to int) {
			for it := from; it < to; it++ {
				acc.Add(hotIdx, 1)
				acc.Add((it*97)%n, 1)
			}
		})
		acc.Done()
	})
	tr.FinalizeWith(team)
	team.Close()
	for it := 0; it < iters; it++ {
		want[hotIdx]++
		want[(it*97)%n]++
	}
	if d := num.MaxAbsDiff(out, want); d != 0 {
		t.Fatalf("chunk-boundary run diverged: max diff %v", d)
	}
	if rec.Snapshot().Get(telemetry.TieredPromotions) == 0 {
		t.Error("no promotions despite chunk-boundary rebalance hook")
	}
}

// TestTieredBulkSeededBitwiseMatchesElementwise is the Kahan ordering
// contract under a fixed promotion schedule: with online rebalancing
// disabled and a seeded hot set, the AddN/Scatter paths over a
// compensated inner must be bitwise identical to the element-wise path
// on arbitrary (non-integer) float data.
func TestTieredBulkSeededBitwiseMatchesElementwise(t *testing.T) {
	const n, threads = 1 << 10, 3
	rng := rand.New(rand.NewSource(99))
	seeds := []int{1, 7, 8, 30}

	mk := func(out []float64) *Tiered[float64] {
		tr := NewTiered(NewCompensated(out, threads), out, TieredConfig{Slots: 8, RebalanceEvery: -1})
		tr.SeedHotLines(seeds)
		return tr
	}
	// One deterministic batch stream per thread: mixed runs and scatters
	// with awkward values that expose any reassociation.
	type batch struct {
		base int
		idx  []int32
		vals []float64
	}
	streams := make([][]batch, threads)
	for tid := range streams {
		for b := 0; b < 40; b++ {
			m := 1 + rng.Intn(64)
			vals := make([]float64, m)
			for j := range vals {
				vals[j] = (rng.Float64() - 0.5) * math.Ldexp(1, rng.Intn(40)-20)
			}
			if b%2 == 0 {
				streams[tid] = append(streams[tid], batch{base: rng.Intn(n - m), vals: vals})
			} else {
				idx := make([]int32, m)
				for j := range idx {
					if rng.Intn(3) == 0 { // hot line
						idx[j] = int32(seeds[rng.Intn(len(seeds))]*8 + rng.Intn(8))
					} else {
						idx[j] = int32(rng.Intn(n))
					}
				}
				streams[tid] = append(streams[tid], batch{idx: idx, vals: vals})
			}
		}
	}

	run := func(bulk bool) []float64 {
		out := make([]float64, n)
		tr := mk(out)
		team := par.NewTeam(threads)
		team.Run(func(tid int) {
			acc := AsBulk(tr.Private(tid))
			for _, b := range streams[tid] {
				switch {
				case !bulk && b.idx == nil:
					for j, v := range b.vals {
						acc.Add(b.base+j, v)
					}
				case !bulk:
					for j, i := range b.idx {
						acc.Add(int(i), b.vals[j])
					}
				case b.idx == nil:
					acc.AddN(b.base, b.vals)
				default:
					acc.Scatter(b.idx, b.vals)
				}
			}
			acc.Done()
		})
		tr.FinalizeWith(team)
		team.Close()
		return out
	}

	each, bulk := run(false), run(true)
	for i := range each {
		if math.Float64bits(each[i]) != math.Float64bits(bulk[i]) {
			t.Fatalf("out[%d]: element-wise %x, bulk %x — bulk path reassociated under a fixed promotion schedule",
				i, math.Float64bits(each[i]), math.Float64bits(bulk[i]))
		}
	}
}

// TestTieredPropertyRandomSchedules is the fuzz-style property test:
// random streams, random cache geometry, random promotion pressure —
// the result must stay exactly the sequential sum (integer-valued data)
// across whatever promotion/eviction schedule falls out.
func TestTieredPropertyRandomSchedules(t *testing.T) {
	f := func(seed int64, nRaw, itersRaw uint16, threadsRaw, slotsRaw, rebRaw uint8) bool {
		n := int(nRaw)%2000 + 64
		iters := int(itersRaw)%200 + 1
		threads := int(threadsRaw)%5 + 1
		slots := 1 << (int(slotsRaw) % 6) // 1..32
		reb := int(rebRaw)%200 + 8
		ups := genUpdates(seed, iters, n, 3)
		want := seqApply(n, ups, 0)
		out := make([]float64, n)
		tr := NewTiered(NewAtomic(out, threads), out,
			TieredConfig{Slots: slots, RebalanceEvery: reb, PromoteMin: 1})
		team := par.NewTeam(threads)
		runReduction(t, team, tr, iters, ups)
		team.Close()
		if num.MaxAbsDiff(out, want) != 0 {
			t.Logf("tiered diverged for n=%d iters=%d threads=%d slots=%d reb=%d",
				n, iters, threads, slots, reb)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestTieredUntouchedElementsUnperturbed checks the touched-bitmask
// contract: elements of a hot line the region never writes keep their
// exact bit pattern (including -0.0), because merge and eviction flush
// only touched slots.
func TestTieredUntouchedElementsUnperturbed(t *testing.T) {
	const n = 256
	out := make([]float64, n)
	negZero := math.Copysign(0, -1)
	for i := range out {
		out[i] = negZero
	}
	tr := NewTiered(NewAtomic(out, 1), out, TieredConfig{Slots: 4, RebalanceEvery: -1})
	le := tr.LineElems()
	tr.SeedHotLines([]int{0, 1})
	acc := tr.Private(0)
	acc.Add(0, 1)      // line 0, element 0 touched
	acc.Add(le+2, 2.5) // line 1, element 2 touched
	acc.Done()
	tr.Finalize()
	for i := range out {
		switch i {
		case 0:
			if out[i] != 1 {
				t.Errorf("out[0] = %v, want 1", out[i])
			}
		case le + 2:
			if out[i] != 2.5 {
				t.Errorf("out[%d] = %v, want 2.5", i, out[i])
			}
		default:
			if math.Float64bits(out[i]) != math.Float64bits(negZero) {
				t.Errorf("untouched out[%d] perturbed: %x", i, math.Float64bits(out[i]))
			}
		}
	}
}

// TestTieredEvictionFlushesPartial forces an eviction through the seeded
// install path while a partial is cached and checks the partial reaches
// the output through the inner strategy.
func TestTieredEvictionFlushesPartial(t *testing.T) {
	const n = 1 << 10
	out := make([]float64, n)
	tr := NewTiered(NewAtomic(out, 1), out, TieredConfig{Slots: 4, RebalanceEvery: 24, PromoteMin: 1})
	rec := telemetry.NewRecorder(tr.Name(), 1)
	tr.Instrument(rec)
	le := tr.LineElems()
	tr.SeedHotLines([]int{0}) // slot 0
	acc := tr.Private(0)
	acc.Add(0, 7) // cached partial on line 0
	// Hammer line 4 (same slot: 4 % 4 == 0) until the online path
	// promotes it, evicting line 0's partial mid-region.
	for j := 0; j < 4096; j++ {
		acc.Add(4*le, 1)
	}
	acc.Done()
	tr.Finalize()
	if out[0] != 7 {
		t.Errorf("evicted partial lost: out[0] = %v, want 7", out[0])
	}
	if out[4*le] != 4096 {
		t.Errorf("out[%d] = %v, want 4096", 4*le, out[4*le])
	}
	if rec.Snapshot().Get(telemetry.TieredEvictions) == 0 {
		t.Error("no eviction recorded despite slot displacement")
	}
}

// TestTieredConcurrentPromotionRace is the race-detector target (runs
// under -race via make race-telemetry): all threads promote, evict and
// merge concurrently with a telemetry recorder and the team-parallel
// finalize.
func TestTieredConcurrentPromotionRace(t *testing.T) {
	const n, threads, iters = 1 << 12, 4, 300
	for rep := 0; rep < 3; rep++ {
		out := make([]float64, n)
		tr := NewTiered(NewAtomic(out, threads), out, tieredCfgAggressive)
		rec := telemetry.NewRecorder(tr.Name(), threads)
		tr.Instrument(rec)
		ups := genUpdates(int64(rep), iters, n, 3)
		want := seqApply(n, ups, 0)
		team := par.NewTeam(threads)
		tr.EnableMidDrain(true)
		byIter := make([][]update, iters)
		for _, u := range ups {
			byIter[u.Iter] = append(byIter[u.Iter], u)
		}
		c := par.NewChunker(par.Dynamic(4), 0, iters, threads)
		c.SetChunkDone(tr.DrainMid)
		team.Run(func(tid int) {
			acc := tr.Private(tid)
			c.For(tid, func(from, to int) {
				for it := from; it < to; it++ {
					for _, u := range byIter[it] {
						acc.Add(u.Idx, u.Val)
					}
				}
			})
			acc.Done()
		})
		tr.FinalizeWith(team)
		team.Close()
		if d := num.MaxAbsDiff(out, want); d != 0 {
			t.Fatalf("rep %d: concurrent tiered run diverged: max diff %v", rep, d)
		}
	}
}

// tieredOp is one fuzz-derived bulk operation; idx carries the target
// indices and vals the contributions (Add ops have length 1, AddN ops
// target base..base+len, Scatter ops are index/value pairs).
type tieredOp struct {
	kind byte // 0 = Add, 1 = AddN, 2 = Scatter
	base int
	idx  []int32
	vals []float64
}

// parseTieredOps turns a fuzzer byte string into a mixed Add/AddN/Scatter
// stream over [0, n). wild selects awkward non-integer values (for the
// fixed-schedule bitwise leg); otherwise values are small integers, for
// which any promotion/eviction schedule must reproduce the scalar sum
// exactly.
func parseTieredOps(raw []byte, n int, wild bool) []tieredOp {
	var ops []tieredOp
	val := func(p int) float64 {
		if wild {
			return math.Ldexp(float64(int(raw[p%len(raw)])-128), p%40-20)
		}
		return float64(int(raw[p%len(raw)])%9 - 4)
	}
	for p := 0; p < len(raw); {
		kind := raw[p] % 3
		switch kind {
		case 0:
			ops = append(ops, tieredOp{kind: 0,
				idx:  []int32{int32(int(raw[p]) * 131 % n)},
				vals: []float64{val(p + 1)}})
			p += 2
		case 1:
			m := int(raw[p])%6 + 1
			base := int(raw[p]) * 31 % (n - m)
			vals := make([]float64, m)
			for j := range vals {
				vals[j] = val(p + 1 + j)
			}
			ops = append(ops, tieredOp{kind: 1, base: base, vals: vals})
			p += 1 + m
		default:
			m := int(raw[p])%8 + 1
			idx := make([]int32, m)
			vals := make([]float64, m)
			for j := range idx {
				idx[j] = int32(int(raw[(p+j)%len(raw)]) * 67 % n)
				vals[j] = val(p + 1 + j)
			}
			ops = append(ops, tieredOp{kind: 2, idx: idx, vals: vals})
			p += 1 + m
		}
	}
	return ops
}

// scalarApplyOps is the scalar reference: the ops in order, element by
// element in batch order — the chain every tiered configuration is
// compared against.
func scalarApplyOps(n int, ops []tieredOp) []float64 {
	out := make([]float64, n)
	for _, op := range ops {
		switch op.kind {
		case 1:
			for j, v := range op.vals {
				out[op.base+j] += v
			}
		default:
			for j, i := range op.idx {
				out[int(i)] += op.vals[j]
			}
		}
	}
	return out
}

func applyTieredOps(acc BulkPrivate[float64], ops []tieredOp) {
	for _, op := range ops {
		switch op.kind {
		case 0:
			acc.Add(int(op.idx[0]), op.vals[0])
		case 1:
			acc.AddN(op.base, op.vals)
		default:
			acc.Scatter(op.idx, op.vals)
		}
	}
}

// FuzzTieredEquivalence cross-checks hot+atomic and hot+compensated
// against the scalar reference on fuzzer-invented mixed streams, two
// ways. Random-schedule leg: integer-valued data, hair-trigger
// promotion/eviction churn across two threads — the result must be
// bitwise the scalar sum no matter what schedule falls out (integer
// addition is order-exact). Fixed-schedule leg: arbitrary awkward float
// values with the hot set seeded and online rebalancing disabled — a
// single thread's Add/AddN/Scatter stream must be bitwise the scalar
// chain, because every per-index accumulation chain survives the
// temperature routing intact.
func FuzzTieredEquivalence(f *testing.F) {
	f.Add([]byte{1, 2, 3, 200, 200, 200, 9, 9, 9, 9, 0, 255})
	f.Add([]byte{7, 7, 7, 7, 7, 7, 7, 7, 64, 65, 66})
	f.Add([]byte{0, 128, 255, 1, 129, 2, 130, 3})
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) == 0 {
			return
		}
		const n = 512
		cfg := TieredConfig{Slots: 4, RebalanceEvery: 16, PromoteMin: 1}

		// Random-schedule leg: integer values, two threads, constant churn.
		ops := parseTieredOps(raw, n, false)
		want := scalarApplyOps(n, ops)
		for name, mk := range map[string]func(o []float64) Reducer[float64]{
			"atomic":      func(o []float64) Reducer[float64] { return NewAtomic(o, 2) },
			"compensated": func(o []float64) Reducer[float64] { return NewCompensated(o, 2) },
		} {
			out := make([]float64, n)
			tr := NewTiered(mk(out), out, cfg)
			team := par.NewTeam(2)
			team.Run(func(tid int) {
				acc := AsBulk(tr.Private(tid))
				from, to := par.StaticRange(0, len(ops), tid, 2)
				applyTieredOps(acc, ops[from:to])
				acc.Done()
			})
			tr.FinalizeWith(team)
			team.Close()
			for i := range out {
				if math.Float64bits(out[i]) != math.Float64bits(want[i]) {
					t.Fatalf("hot+%s random schedule: out[%d] = %v, want %v", name, i, out[i], want[i])
				}
			}
		}

		// Fixed-schedule leg: wild values, seeded hot set, online disabled.
		wildOps := parseTieredOps(raw, n, true)
		wildWant := scalarApplyOps(n, wildOps)
		out := make([]float64, n)
		tr := NewTiered(NewAtomic(out, 1), out, TieredConfig{Slots: 8, RebalanceEvery: -1})
		le := tr.LineElems()
		tr.SeedHotLines([]int{0, 3, 7, n/le - 1})
		acc := AsBulk(tr.Private(0))
		applyTieredOps(acc, wildOps)
		acc.Done()
		tr.Finalize()
		for i := range out {
			if math.Float64bits(out[i]) != math.Float64bits(wildWant[i]) {
				t.Fatalf("hot+atomic fixed schedule: out[%d] bits %x, want %x",
					i, math.Float64bits(out[i]), math.Float64bits(wildWant[i]))
			}
		}
	})
}

// TestTieredMemoryAccounted checks Bytes covers the tracker and the
// per-thread caches, and that the footprint is array-size-independent.
func TestTieredMemoryAccounted(t *testing.T) {
	const threads = 2
	small := make([]float64, 1<<10)
	big := make([]float64, 1<<18)
	trS := NewTiered(NewAtomic(small, threads), small, TieredConfig{})
	trB := NewTiered(NewAtomic(big, threads), big, TieredConfig{})
	if trS.Bytes() == 0 {
		t.Error("tracker footprint not charged at construction")
	}
	for tid := 0; tid < threads; tid++ {
		trS.Private(tid)
		trB.Private(tid)
	}
	if trS.Bytes() == 0 || trB.Bytes() == 0 {
		t.Fatal("per-thread cache not charged")
	}
	if trS.Bytes() != trB.Bytes() {
		t.Errorf("tiered footprint depends on array size: %d vs %d bytes (must be hot-set-capacity bound)",
			trS.Bytes(), trB.Bytes())
	}
}

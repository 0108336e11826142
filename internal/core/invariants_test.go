package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"spray/internal/num"
	"spray/internal/par"
	"spray/internal/telemetry"
)

// Cross-strategy differential property tests: beyond matching the
// sequential reference, strategies must agree with each other bit-for-bit
// on order-insensitive inputs, keep their memory accounting consistent
// (never negative, peak >= live), and survive pathological shapes
// (single-element arrays, empty iteration ranges, all-threads-one-index).

func TestMemoryAccountingInvariants(t *testing.T) {
	f := func(seed int64, nRaw uint16, thRaw uint8) bool {
		n := int(nRaw)%2000 + 1
		threads := int(thRaw)%6 + 1
		iters := n / 2
		ups := genUpdates(seed, iters+1, n, 2)
		for name, mk := range strategies(n) {
			team := par.NewTeam(threads)
			out := make([]float64, n)
			r := mk(out, threads)
			runReduction(t, team, r, iters+1, ups)
			team.Close()
			if r.Bytes() < 0 || r.PeakBytes() < 0 {
				t.Logf("%s: negative accounting %d/%d", name, r.Bytes(), r.PeakBytes())
				return false
			}
			if r.Bytes() > r.PeakBytes() {
				t.Logf("%s: live %d above peak %d", name, r.Bytes(), r.PeakBytes())
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}

func TestSingleElementArrayAllStrategies(t *testing.T) {
	const threads = 4
	for name, mk := range strategies(1) {
		team := par.NewTeam(threads)
		out := make([]float64, 1)
		r := mk(out, threads)
		team.Run(func(tid int) {
			acc := r.Private(tid)
			for i := 0; i < 100; i++ {
				acc.Add(0, 1)
			}
			acc.Done()
		})
		r.Finalize()
		team.Close()
		if out[0] != 100*threads {
			t.Errorf("%s: out[0]=%v, want %d", name, out[0], 100*threads)
		}
	}
}

func TestNoUpdatesIsIdentity(t *testing.T) {
	const n, threads = 257, 3
	for name, mk := range strategies(n) {
		team := par.NewTeam(threads)
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(i)
		}
		r := mk(out, threads)
		team.Run(func(tid int) {
			r.Private(tid).Done() // no Adds at all
		})
		r.Finalize()
		team.Close()
		for i, v := range out {
			if v != float64(i) {
				t.Fatalf("%s: out[%d] changed to %v", name, i, v)
			}
		}
		if r.Bytes() < 0 {
			t.Errorf("%s: bytes %d", name, r.Bytes())
		}
	}
}

func TestAllThreadsHammerOneIndex(t *testing.T) {
	const n, threads, each = 64, 6, 5000
	for name, mk := range strategies(n) {
		team := par.NewTeam(threads)
		out := make([]float64, n)
		r := mk(out, threads)
		team.Run(func(tid int) {
			acc := r.Private(tid)
			for i := 0; i < each; i++ {
				acc.Add(n/2, 1)
			}
			acc.Done()
		})
		r.Finalize()
		team.Close()
		if out[n/2] != threads*each {
			t.Errorf("%s: contended index %v, want %d", name, out[n/2], threads*each)
		}
	}
}

func TestStrategiesAgreePairwiseOnExactValues(t *testing.T) {
	// With integer-valued updates every strategy must produce the exact
	// same array, not merely close to the reference.
	const n, iters, threads = 777, 300, 5
	ups := genUpdates(99, iters, n, 3)
	var first []float64
	var firstName string
	for name, mk := range strategies(n) {
		team := par.NewTeam(threads)
		out := make([]float64, n)
		r := mk(out, threads)
		runReduction(t, team, r, iters, ups)
		team.Close()
		if first == nil {
			first = out
			firstName = name
			continue
		}
		if d := num.MaxAbsDiff(out, first); d != 0 {
			t.Errorf("%s vs %s: diff %v", name, firstName, d)
		}
	}
}

func TestPrivateAfterFinalizeStartsClean(t *testing.T) {
	// Strategy state must not leak contributions across Finalize.
	const n = 128
	rng := rand.New(rand.NewSource(5))
	for name, mk := range strategies(n) {
		out := make([]float64, n)
		r := mk(out, 1)
		acc := r.Private(0)
		total := 0.0
		for i := 0; i < 50; i++ {
			v := float64(rng.Intn(9))
			acc.Add(i%n, v)
			total += v
		}
		acc.Done()
		r.Finalize()
		// Second, empty region: nothing more may arrive.
		r.Private(0).Done()
		r.Finalize()
		var sum float64
		for _, v := range out {
			sum += v
		}
		if sum != total {
			t.Errorf("%s: sum %v after empty region, want %v", name, sum, total)
		}
	}
}

// TestBlockAddWindowResetByPrivate checks that block Add's one-block
// window does not outlive its region. In region 1 member 0 claims block
// B in place. In region 2 member 1 claims B first, so member 0's first
// Add into B must lose the claim and fall back to a private copy. A
// window that survived Private would write straight into out while
// member 1 owns B, and book no fallback.
func TestBlockAddWindowResetByPrivate(t *testing.T) {
	const n, bs, threads = 64, 16, 2
	const i0, i1 = 20, 21 // both in block B = 1
	out := make([]float64, n)
	r := NewBlock(out, threads, bs, BlockCAS)
	rec := telemetry.NewRecorder(r.Name(), threads)
	r.Instrument(rec)
	team := par.NewTeam(threads)
	defer team.Close()

	team.Run(func(tid int) {
		acc := r.Private(tid)
		if tid == 0 {
			acc.Add(i0, 1)
		}
		acc.Done()
	})
	r.FinalizeWith(team)
	before := rec.Snapshot().Get(telemetry.BlockFallbacks)

	claimed := make(chan struct{})
	team.Run(func(tid int) {
		acc := r.Private(tid)
		if tid == 1 {
			acc.Add(i1, 2)
			close(claimed)
		} else {
			<-claimed
			acc.Add(i0, 4)
		}
		acc.Done()
	})
	r.FinalizeWith(team)

	if got := rec.Snapshot().Get(telemetry.BlockFallbacks) - before; got != 1 {
		t.Errorf("region 2 booked %d block fallbacks, want 1", got)
	}
	if out[i0] != 5 || out[i1] != 2 {
		t.Errorf("out[%d], out[%d] = %v, %v, want 5, 2", i0, i1, out[i0], out[i1])
	}
}

// TestBlockScatterWindowResetByPrivate checks that block Scatter's
// window of claimed blocks does not outlive its region. In region 1
// member 0 claims blocks B..B+2 through one Scatter, so its window spans
// all three. In region 2 member 1 claims B+1 first, so member 0's batch
// across B..B+2 must claim B and B+2 but fall back on B+1. A window that
// survived Private would write all three straight into out while member
// 1 owns B+1, and book no fallback. Member 0 then repeats the batch: a
// window grown from B over the gap to B+2 would put that repeat's B+1
// update in out before Finalize.
func TestBlockScatterWindowResetByPrivate(t *testing.T) {
	const n, bs, threads = 96, 16, 2
	const b = 1
	idx := []int32{b*bs + 3, (b+1)*bs + 3, (b+2)*bs + 3}
	mid := []int32{(b+1)*bs + 5}
	for _, mode := range []BlockMode{BlockCAS, BlockLock} {
		out := make([]float64, n)
		r := NewBlock(out, threads, bs, mode)
		rec := telemetry.NewRecorder(r.Name(), threads)
		r.Instrument(rec)
		team := par.NewTeam(threads)

		team.Run(func(tid int) {
			acc := r.Private(tid).(BulkPrivate[float64])
			if tid == 0 {
				acc.Scatter(idx, []float64{1, 1, 1})
			}
			acc.Done()
		})
		r.FinalizeWith(team)
		before := rec.Snapshot().Get(telemetry.BlockFallbacks)

		claimed := make(chan struct{})
		team.Run(func(tid int) {
			acc := r.Private(tid).(BulkPrivate[float64])
			if tid == 1 {
				acc.Scatter(mid, []float64{2})
				close(claimed)
			} else {
				<-claimed
				acc.Scatter(idx, []float64{4, 4, 4})
				acc.Scatter(idx, []float64{4, 4, 4})
			}
			acc.Done()
		})
		if out[idx[1]] != 1 {
			t.Errorf("%s: out[%d] = %v before Finalize, want region 1's 1", mode, idx[1], out[idx[1]])
		}
		r.FinalizeWith(team)
		team.Close()

		if got := rec.Snapshot().Get(telemetry.BlockFallbacks) - before; got != 1 {
			t.Errorf("%s: region 2 booked %d block fallbacks, want 1", mode, got)
		}
		want := make([]float64, n)
		for _, i := range idx {
			want[i] = 9
		}
		want[mid[0]] = 2
		if d := num.MaxAbsDiff(out, want); d != 0 {
			t.Errorf("%s: out differs from the exact sums by %v", mode, d)
		}
	}
}

// TestBlockScatterWindowMatchesAdd drives a banded batch stream through
// block Scatter and through the element-wise Add loop at team sizes 1-3,
// with the members' batches interleaved round-robin on one goroutine so
// both runs see the same claims in the same order. Scatter must equal
// Add bit for bit and book the same claims and fallbacks; the output
// ends in a partial block, which the last member's window must cover;
// and indices -1 and len(out) must still panic with the window in
// place.
func TestBlockScatterWindowMatchesAdd(t *testing.T) {
	const bs = 16
	for _, n := range []int{20*bs + 7, 20 * bs} {
		s := bandedBatches(n, 5, 12, int64(n))
		ref := make([]float32, n)
		for k, i := range s.idx {
			ref[i] += s.vals[k]
		}
		for _, mode := range []BlockMode{BlockCAS, BlockLock} {
			for threads := 1; threads <= 3; threads++ {
				name := fmt.Sprintf("n=%d/%s/threads=%d", n, mode, threads)
				run := func(scatter bool) ([]float32, telemetry.Snapshot) {
					out := make([]float32, n)
					r := NewBlock(out, threads, bs, mode)
					rec := telemetry.NewRecorder(r.Name(), threads)
					r.Instrument(rec)
					accs := make([]BulkPrivate[float32], threads)
					for tid := range accs {
						accs[tid] = r.Private(tid).(BulkPrivate[float32])
					}
					for step := 0; ; step++ {
						more := false
						for tid, acc := range accs {
							from, to := par.StaticRange(0, n, tid, threads)
							row := from + step
							if row >= to {
								continue
							}
							more = true
							idx := s.idx[s.ptr[row]:s.ptr[row+1]]
							vals := s.vals[s.ptr[row]:s.ptr[row+1]]
							if scatter {
								acc.Scatter(idx, vals)
								continue
							}
							for k, i := range idx {
								acc.Add(int(i), vals[k])
							}
						}
						if !more {
							break
						}
					}
					last := &r.privs[threads-1]
					if n%bs != 0 && last.winBase+len(last.win) != n {
						t.Errorf("%s: last member's window [%d, %d) misses the tail block ending at %d",
							name, last.winBase, last.winBase+len(last.win), n)
					}
					for _, bad := range [][]int32{{-1}, {0, -1}, {int32(n)}, {int32(n - 1), int32(n)}} {
						func() {
							defer func() {
								if recover() == nil {
									t.Errorf("%s: Scatter(%v) did not panic", name, bad)
								}
							}()
							accs[threads-1].Scatter(bad, make([]float32, len(bad)))
						}()
					}
					for _, acc := range accs {
						acc.Done()
					}
					r.Finalize()
					return out, rec.Snapshot()
				}
				outAdd, telAdd := run(false)
				outScatter, telScatter := run(true)
				for i := range outAdd {
					if math.Float32bits(outScatter[i]) != math.Float32bits(outAdd[i]) {
						t.Errorf("%s: out[%d] Scatter=%x Add=%x", name, i,
							math.Float32bits(outScatter[i]), math.Float32bits(outAdd[i]))
						break
					}
				}
				for _, k := range []telemetry.Kind{telemetry.BlockClaims, telemetry.BlockFallbacks} {
					if a, b := telAdd.Get(k), telScatter.Get(k); a != b {
						t.Errorf("%s: %v Scatter=%d Add=%d", name, k, b, a)
					}
				}
				for i := range ref {
					if d := math.Abs(float64(outScatter[i] - ref[i])); d > 1e-5*math.Max(1, math.Abs(float64(ref[i]))) {
						t.Errorf("%s: out[%d] = %v, sequential %v", name, i, outScatter[i], ref[i])
						break
					}
				}
			}
		}
	}
}

package core

import (
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

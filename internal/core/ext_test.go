package core

import (
	"testing"

	"spray/internal/num"
	"spray/internal/par"
)

// The ordered extension strategy gets the same correctness treatment as
// the paper's strategies plus tests of its distinguishing guarantee:
// bitwise determinism.

func TestOrderedMatchesSequential(t *testing.T) {
	const n, iters = 700, 300
	ups := genUpdates(21, iters, n, 3)
	want := seqApply(n, ups, 0)
	for _, threads := range []int{1, 3, 6} {
		team := par.NewTeam(threads)
		out := make([]float64, n)
		r := NewOrdered(out, threads)
		runReduction(t, team, r, iters, ups)
		team.Close()
		if d := num.MaxAbsDiff(out, want); d != 0 {
			t.Errorf("threads=%d: diff %v", threads, d)
		}
	}
}

func TestOrderedBitwiseDeterministic(t *testing.T) {
	// With irrational-ish values the result depends on summation order;
	// Ordered must give the identical bit pattern on every run for a
	// fixed thread count, where racing strategies may not.
	const n, iters, threads, runs = 400, 500, 4, 6
	ups := genUpdates(22, iters, n, 3)
	for k := range ups {
		ups[k].Val = 0.1 * float64(k%97+1) // values with rounding sensitivity
	}
	var first []float64
	for run := 0; run < runs; run++ {
		team := par.NewTeam(threads)
		out := make([]float64, n)
		r := NewOrdered(out, threads)
		runReduction(t, team, r, iters, ups)
		team.Close()
		if first == nil {
			first = append([]float64(nil), out...)
			continue
		}
		for i := range out {
			if out[i] != first[i] {
				t.Fatalf("run %d: out[%d] = %x, first run %x", run, i, out[i], first[i])
			}
		}
	}
}

func TestOrderedMemoryProportionalToUpdates(t *testing.T) {
	const n = 1000
	out := make([]float64, n)
	r := NewOrdered(out, 1)
	acc := r.Private(0)
	const updates = 5000
	for i := 0; i < updates; i++ {
		acc.Add(i%n, 1)
	}
	acc.Done()
	want := int64(updates * (4 + 8))
	if r.Bytes() != want {
		t.Errorf("bytes=%d, want %d", r.Bytes(), want)
	}
	r.Finalize()
	if r.Bytes() != 0 {
		t.Errorf("bytes after finalize=%d", r.Bytes())
	}
	if out[0] != 5 {
		t.Errorf("out[0]=%v, want 5", out[0])
	}
}

func TestExtensionNames(t *testing.T) {
	out := make([]float64, 8)
	if got := NewOrdered(out, 1).Name(); got != "ordered" {
		t.Errorf("ordered Name=%q", got)
	}
}

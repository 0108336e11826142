package spray

// Strategy-hook audit for the steal schedule: the reducer hook that
// fires at chunk boundaries — the keeper's mid-region mailbox drain —
// was designed against the monotone per-member chunk order of the
// static/dynamic/guided schedules. The steal schedule delivers chunks out of order and moves
// them between members mid-region, so these tests force heavy stealing
// (a stalled member) and pin exact results plus the hook counters.

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"spray/internal/core"
	"spray/internal/num"
	"spray/internal/par"
	"spray/internal/telemetry"
)

// stealBody returns a scatter body over [0, n) with guaranteed foreign
// traffic (every iteration also writes a stride-scrambled index). On a
// team of more than one member its first executed chunk stalls until
// another member begins a chunk of the same seed slice: the staller is
// stuck inside its first chunk, so only a steal can begin a second one.
// A stall without a steal fails the test after 10 s. The returned want
// function applies the same updates sequentially. Inputs are
// integer-valued so any execution order sums exactly.
func stealBody(t *testing.T, in []float64, n, threads int) (func(acc Accessor[float64], from, to int), func(want []float64)) {
	const wait = 10 * time.Second
	var stalled atomic.Bool
	started := make([]atomic.Int32, threads) // chunks begun per seed slice
	slice := func(i int) int {
		for k := range threads {
			if _, to := par.StaticRange(0, n, k, threads); i < to {
				return k
			}
		}
		return threads - 1
	}
	body := func(acc Accessor[float64], from, to int) {
		if threads > 1 {
			k := slice(from)
			started[k].Add(1)
			if !stalled.Swap(true) {
				deadline := time.Now().Add(wait)
				for started[k].Load() < 2 && time.Now().Before(deadline) {
					runtime.Gosched()
				}
				if started[k].Load() < 2 {
					t.Errorf("no member stole from the stalled member's seed slice within %v", wait)
				}
			}
		}
		for i := from; i < to; i++ {
			acc.Add(i, in[i])
			acc.Add((i*31+7)%n, 2*in[i])
		}
	}
	ref := func(want []float64) {
		for i := 0; i < n; i++ {
			want[i] += in[i]
			want[(i*31+7)%n] += 2 * in[i]
		}
	}
	return body, ref
}

// TestStealScheduleAllStrategies pins exactness of every strategy under
// forced stealing.
func TestStealScheduleAllStrategies(t *testing.T) {
	const n = 30_000
	in := testInput(n)
	for _, st := range AllStrategies() {
		for _, threads := range []int{1, 4} {
			team := NewTeam(threads)
			out := make([]float64, n)
			want := make([]float64, n)
			body, ref := stealBody(t, in, n, threads)
			r := New(st, out, threads)
			RunReduction(team, r, 0, n, Steal(64), body)
			ref(want)
			team.Close()
			if d := num.MaxAbsDiff(out, want); d != 0 {
				t.Errorf("%s threads=%d under steal: diff %v", st, threads, d)
			}
		}
	}
}

// TestStealKeeperMidDrain pins the keeper's chunk-boundary mailbox drain
// under out-of-order chunk delivery: stolen chunks generate foreign
// parcels addressed to the victim, and the victim must keep applying
// them at its own chunk boundaries regardless of which chunks it still
// owns. The counters must show actual steals, foreign traffic and
// mid-region drains in one region set.
func TestStealKeeperMidDrain(t *testing.T) {
	const n, threads, regions = 120_000, 4, 3
	in := testInput(n)
	team := NewTeam(threads)
	defer team.Close()
	out := make([]float64, n)
	want := make([]float64, n)
	r := New(Keeper(), out, threads)
	ins := Instrument(team, r)
	defer ins.Detach()
	for reg := 0; reg < regions; reg++ {
		body, ref := stealBody(t, in, n, threads)
		RunReduction(team, r, 0, n, Steal(128), body)
		ref(want)
	}
	if d := num.MaxAbsDiff(out, want); d != 0 {
		t.Fatalf("keeper under steal: diff %v", d)
	}
	rep := ins.Report()
	if got := rep.Counters.Get(telemetry.Steals); got == 0 {
		t.Error("no steals recorded with a stalled member")
	}
	if got := rep.Counters.Get(telemetry.KeeperForeign); got == 0 {
		t.Error("no foreign keeper traffic under stolen chunks")
	}
	if got := rep.Counters.Get(telemetry.KeeperMidDrains); got == 0 {
		t.Error("keeper never drained mid-region at a steal-schedule chunk boundary")
	}
	if ci := rep.ChunkImbalance(); ci < 1 {
		t.Errorf("chunk imbalance %.2f, want >= 1 with per-thread chunk counts", ci)
	}
}

// drainCounter wraps a mid-region-draining reducer and counts the
// chunk-boundary drains the loop runtime calls.
type drainCounter struct {
	Reducer[float64]
	drains atomic.Int64
}

func (d *drainCounter) EnableMidDrain(on bool) {
	d.Reducer.(core.MidRegionDrainer).EnableMidDrain(on)
}

func (d *drainCounter) DrainMid(tid int) {
	d.drains.Add(1)
	d.Reducer.(core.MidRegionDrainer).DrainMid(tid)
}

// TestStealReuseNoDrainLeak pins that the keeper's chunk-boundary drain
// stays with the reduction that attached it: RunReduction hooks it into
// the team's one chunker, and the ParallelFor that reuses the chunker
// next must not call it. RunReduction2D, built on RunReduction, must get
// the drain as well.
func TestStealReuseNoDrainLeak(t *testing.T) {
	const n, threads = 4096, 2
	team := NewTeam(threads)
	defer team.Close()
	out := make([]float64, n)
	for _, s := range []Schedule{Steal(0), Dynamic(16), Static()} {
		d := &drainCounter{Reducer: New(Keeper(), out, threads)}
		RunReduction(team, d, 0, n, s, func(acc Accessor[float64], from, to int) {
			for i := from; i < to; i++ {
				acc.Add(n-1-i, 1)
			}
		})
		before := d.drains.Load()
		if before == 0 {
			t.Fatalf("%v: keeper reduction never drained at a chunk boundary", s)
		}
		ParallelFor(team, 0, n, s, func(tid, from, to int) {})
		if got := d.drains.Load(); got != before {
			t.Errorf("%v: ParallelFor after a keeper reduction called its drain %d times", s, got-before)
		}
	}

	const rows, cols = 64, 64
	d := &drainCounter{Reducer: New(Keeper(), out, threads)}
	RunReduction2D(team, Reducer2D[float64]{r: d, rows: rows, cols: cols}, 0, rows, Steal(0),
		func(acc Accessor2D[float64], from, to int) {
			for i := from; i < to; i++ {
				acc.Add(rows-1-i, 0, 1)
			}
		})
	if d.drains.Load() == 0 {
		t.Error("keeper-backed 2-D reduction never drained at a chunk boundary")
	}
}

// TestSteal2DRecordsRuntimeCounters pins that the 2-D driver's loop
// reports to the team's recorder: under the steal schedule an
// instrumented team must count the chunks it executed.
func TestSteal2DRecordsRuntimeCounters(t *testing.T) {
	const rows, cols, threads = 256, 8, 2
	team := NewTeam(threads)
	defer team.Close()
	rec := telemetry.NewRecorder("reduce-2d", threads)
	team.SetRecorder(rec)
	out := make([]float64, rows*cols)
	ReduceFor2D(team, Atomic(), out, rows, cols, 0, rows, Steal(0),
		func(acc Accessor2D[float64], from, to int) {
			for i := from; i < to; i++ {
				acc.Add(i, i%cols, 1)
			}
		})
	team.SetRecorder(nil)
	if got := rec.Snapshot().Get(telemetry.ChunksExecuted); got == 0 {
		t.Error("ReduceFor2D under steal recorded no executed chunks on an instrumented team")
	}
	for i := 0; i < rows; i++ {
		if got := out[i*cols+i%cols]; got != 1 {
			t.Fatalf("row %d: got %v at column %d, want 1", i, got, i%cols)
		}
	}
}

package spray

// Strategy-hook audit for the steal schedule: the reducer hook that
// fires at chunk boundaries — the keeper's mid-region mailbox drain —
// was designed against the monotone per-member chunk order of the
// static/dynamic/guided schedules. The steal schedule delivers chunks out of order and moves
// them between members mid-region, so these tests force heavy stealing
// (a stalled member) and pin exact results plus the hook counters.

import (
	"sync/atomic"
	"testing"
	"time"

	"spray/internal/num"
	"spray/internal/telemetry"
)

// stealBody returns a scatter body over [0, n) with guaranteed foreign
// traffic (every iteration also writes a stride-scrambled index) whose
// first executed chunk stalls, forcing the rest of the team to steal the
// straggler's slice. The returned want function applies the same updates
// sequentially. Inputs are integer-valued so any execution order sums
// exactly.
func stealBody(in []float64, n int, stall time.Duration) (func(acc Accessor[float64], from, to int), func(want []float64)) {
	var stalled atomic.Bool
	body := func(acc Accessor[float64], from, to int) {
		if stall > 0 && !stalled.Swap(true) {
			time.Sleep(stall)
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
			body, ref := stealBody(in, n, 2*time.Millisecond)
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
		body, ref := stealBody(in, n, 5*time.Millisecond)
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

package par

import (
	"sync/atomic"
	"testing"
)

// The tests below pin the reuse of a team's one Chunker: every loop on a
// team resets the same hand-out state, steal deques included. Their
// names carry "Steal" so the race-detector target runs them.

// TestStealReuseRanges runs steal loops over growing and shrinking
// ranges and grains on one team; each must cover its range exactly once.
func TestStealReuseRanges(t *testing.T) {
	team := NewTeam(4)
	defer team.Close()
	for _, r := range []struct{ lo, hi, grain int }{
		{0, 10, 0}, {0, 10_000, 0}, {-50, 50, 1}, {3, 4, 0},
		{0, 100_000, 8}, {7, 900, 64}, {0, 0, 0}, {0, 5, 100},
		{-1000, 20_000, 0}, {0, 2, 0}, {0, 50_000, 2},
	} {
		chunkCoverage(t, team, r.lo, r.hi, Steal(r.grain))
	}
}

// TestStealReuseInterleavedSchedules interleaves steal loops with the
// static and shared-cursor schedules on one team: a dynamic or guided
// loop must not inherit a cursor, nor a steal loop a deque, from the
// loop before it.
func TestStealReuseInterleavedSchedules(t *testing.T) {
	team := NewTeam(4)
	defer team.Close()
	scheds := []Schedule{Steal(0), Static(), Steal(16), Dynamic(3), Steal(0),
		Guided(2), StaticChunk(5), Steal(1), Dynamic(1), Steal(7)}
	for round := 0; round < 3; round++ {
		for i, s := range scheds {
			lo := i*13 - 40
			chunkCoverage(t, team, lo, lo+500+round*997+i*31, s)
		}
	}
}

// TestStealReusePanickedRegion runs a clean loop after a steal region
// whose body panicked. The panicked members leave chunks in their
// deques, relative to the old loop's bounds; the next loop must drop
// them and cover its own range exactly once.
func TestStealReusePanickedRegion(t *testing.T) {
	for _, members := range []int{1, 4} {
		team := NewTeam(members)
		func() {
			defer func() {
				if _, ok := recover().(*WorkerPanic); !ok {
					t.Errorf("members=%d: the region's panic was not re-raised as a *WorkerPanic", members)
				}
			}()
			c := team.Loop(Steal(1), 1000, 101_000)
			team.Run(func(tid int) {
				c.For(tid, func(from, to int) { panic("chunk body failed") })
			})
		}()
		for _, s := range []Schedule{Steal(0), Steal(4)} {
			chunkCoverage(t, team, 0, 20_000, s)
		}
		team.Close()
	}
}

// forSink keeps TestParallelForNoAlloc's loop body from capturing
// anything, so the only allocations left to count are the runtime's.
var forSink atomic.Int64

// TestParallelForNoAlloc holds a ParallelFor region, hand-out included,
// to zero allocations under the static, dynamic, guided and steal
// schedules, with a non-capturing body and telemetry off.
func TestParallelForNoAlloc(t *testing.T) {
	team := NewTeam(2)
	defer team.Close()
	body := func(tid, from, to int) { forSink.Add(int64(to - from)) }
	for _, s := range []Schedule{Static(), Dynamic(64), Guided(16), Steal(0)} {
		forSink.Store(0)
		allocs := testing.AllocsPerRun(100, func() { ParallelFor(team, 0, 10_000, s, body) })
		if allocs != 0 {
			t.Errorf("%v: ParallelFor allocated %.1f times per region, want 0", s, allocs)
		}
		if got := forSink.Load(); got != 101*10_000 {
			t.Errorf("%v: covered %d iterations, want %d", s, got, 101*10_000)
		}
	}
}

package par

import (
	"sync/atomic"
	"testing"
)

// allSchedules enumerates one representative of every schedule kind plus
// chunked variants at the given chunk size.
func allSchedules(chunk int) []Schedule {
	return []Schedule{
		Static(),
		StaticChunk(chunk),
		Dynamic(chunk),
		Guided(chunk),
		Steal(0),
		Steal(chunk),
	}
}

// chunkCoverage drives a Chunker directly (one For call per member, from
// the test goroutine for determinism of the static kinds, concurrently
// via the team for the shared-cursor kinds) and asserts every index in
// [lo, hi) is visited exactly once and no chunk is empty or out of range.
func chunkCoverage(t *testing.T, team *Team, lo, hi int, s Schedule) {
	t.Helper()
	n := hi - lo
	var visits []atomic.Int32
	if n > 0 {
		visits = make([]atomic.Int32, n)
	}
	var chunks atomic.Int32
	c := team.Loop(s, lo, hi)
	team.Run(func(tid int) {
		c.For(tid, func(from, to int) {
			chunks.Add(1)
			if from >= to {
				t.Errorf("%v [%d,%d): empty chunk [%d,%d)", s, lo, hi, from, to)
			}
			if from < lo || to > hi {
				t.Errorf("%v [%d,%d): chunk [%d,%d) out of range", s, lo, hi, from, to)
			}
			for i := from; i < to; i++ {
				visits[i-lo].Add(1)
			}
		})
	})
	for i := range visits {
		if got := visits[i].Load(); got != 1 {
			t.Errorf("%v [%d,%d): index %d visited %d times", s, lo, hi, lo+i, got)
		}
	}
	if n <= 0 && chunks.Load() != 0 {
		t.Errorf("%v [%d,%d): %d chunks for empty range", s, lo, hi, chunks.Load())
	}
}

// TestScheduleEmptyRange pins hi <= lo for every schedule: no chunk may
// be handed out, including for inverted ranges.
func TestScheduleEmptyRange(t *testing.T) {
	team := NewTeam(4)
	defer team.Close()
	for _, chunk := range []int{1, 8} {
		for _, s := range allSchedules(chunk) {
			for _, r := range [][2]int{{0, 0}, {17, 17}, {10, 3}, {-5, -5}, {5, -5}} {
				chunkCoverage(t, team, r[0], r[1], s)
			}
		}
	}
}

// TestScheduleSingleElement pins the one-iteration loop: exactly one
// member receives exactly one chunk of size one.
func TestScheduleSingleElement(t *testing.T) {
	team := NewTeam(4)
	defer team.Close()
	for _, chunk := range []int{1, 8} {
		for _, s := range allSchedules(chunk) {
			for _, lo := range []int{0, -3, 41} {
				chunkCoverage(t, team, lo, lo+1, s)
			}
		}
	}
}

// TestScheduleChunkLargerThanRange pins chunk sizes exceeding the whole
// iteration range: the first taker gets the clamped range, everyone else
// gets nothing, nothing is visited twice.
func TestScheduleChunkLargerThanRange(t *testing.T) {
	team := NewTeam(4)
	defer team.Close()
	for _, s := range []Schedule{StaticChunk(100), Dynamic(100), Guided(100), Steal(100)} {
		for _, r := range [][2]int{{0, 5}, {-7, 0}, {3, 4}} {
			chunkCoverage(t, team, r[0], r[1], s)
		}
	}
}

// TestGuidedMinimumChunk pins the guided schedule's floor: every chunk
// except possibly the last has at least the configured minimum size, and
// the floor kicks in exactly when remaining/teamSize drops below it.
func TestGuidedMinimumChunk(t *testing.T) {
	const lo, hi, minChunk = 0, 500, 16
	team := NewTeam(4)
	defer team.Close()
	var small atomic.Int32
	visits := make([]atomic.Int32, hi-lo)
	c := team.Loop(Guided(minChunk), lo, hi)
	team.Run(func(tid int) {
		c.For(tid, func(from, to int) {
			if to-from < minChunk {
				if to != hi {
					t.Errorf("guided chunk [%d,%d) below minimum %d before the tail", from, to, minChunk)
				}
				small.Add(1)
			}
			for i := from; i < to; i++ {
				visits[i-lo].Add(1)
			}
		})
	})
	if small.Load() > 1 {
		t.Errorf("guided handed out %d sub-minimum chunks, want at most the final one", small.Load())
	}
	for i := range visits {
		if visits[i].Load() != 1 {
			t.Fatalf("guided: index %d visited %d times", lo+i, visits[i].Load())
		}
	}
}

// TestScheduleMoreMembersThanIterations pins teams larger than the loop:
// surplus members must pass through For without receiving work.
func TestScheduleMoreMembersThanIterations(t *testing.T) {
	team := NewTeam(8)
	defer team.Close()
	for _, s := range allSchedules(2) {
		chunkCoverage(t, team, 0, 3, s)
	}
}

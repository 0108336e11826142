package par

import (
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"spray/internal/telemetry"
)

// stealWait bounds how long a stalled member waits for a thief.
const stealWait = 10 * time.Second

// straggler stalls the first chunk of a steal loop until another member
// has begun a chunk of the same seed slice. The stalled member is stuck
// inside that first chunk, so only a thief can begin a second one: the
// stall ends on a steal, not after a guessed sleep.
type straggler struct {
	lo, hi  int
	started []atomic.Int32 // chunks begun per seed slice
	stalled atomic.Bool
}

func newStraggler(lo, hi, members int) *straggler {
	return &straggler{lo: lo, hi: hi, started: make([]atomic.Int32, members)}
}

// sliceOf returns the member whose seed slice holds index i.
func (s *straggler) sliceOf(i int) int {
	for k := range s.started {
		if _, to := StaticRange(s.lo, s.hi, k, len(s.started)); i < to {
			return k
		}
	}
	return len(s.started) - 1
}

// chunk is called at the start of every chunk body. The first call
// blocks until a thief begins a chunk of its seed slice, and fails the
// test if none does within stealWait.
func (s *straggler) chunk(t *testing.T, from int) {
	k := s.sliceOf(from)
	s.started[k].Add(1)
	if s.stalled.Swap(true) {
		return
	}
	deadline := time.Now().Add(stealWait)
	for s.started[k].Load() < 2 {
		if time.Now().After(deadline) {
			t.Errorf("no member stole from the stalled member's seed slice within %v", stealWait)
			return
		}
		runtime.Gosched()
	}
}

// TestStealForcedStealing pins the redistribution path: the first chunk
// stalls until another member steals from its seeded slice. Coverage
// must stay exact (every index once) and, with a recorder attached, the
// steal counters must show actual steals of the straggler's iterations.
func TestStealForcedStealing(t *testing.T) {
	const lo, hi = 0, 10_000
	team := NewTeam(4)
	defer team.Close()
	rec := telemetry.NewRecorder("steal-test", team.Size())
	visits := make([]atomic.Int32, hi-lo)
	s := newStraggler(lo, hi, team.Size())
	c := NewChunker(Steal(64), lo, hi, team.Size())
	c.SetRecorder(rec)
	team.Run(func(tid int) {
		c.For(tid, func(from, to int) {
			s.chunk(t, from)
			for i := from; i < to; i++ {
				visits[i-lo].Add(1)
			}
		})
	})
	for i := range visits {
		if got := visits[i].Load(); got != 1 {
			t.Fatalf("index %d visited %d times under forced stealing", lo+i, got)
		}
	}
	snap := rec.Snapshot()
	if snap.Get(telemetry.Steals) == 0 {
		t.Fatalf("stalled member forced no steals; counters: %v", snap)
	}
	if snap.Get(telemetry.StealIters) == 0 {
		t.Fatalf("steals recorded but no stolen iterations; counters: %v", snap)
	}
	if snap.Get(telemetry.ChunksExecuted) == 0 {
		t.Fatalf("no chunks recorded; counters: %v", snap)
	}
	// Per-member chunk counts must sum to the total.
	per := rec.PerThread()
	var sum uint64
	for _, s := range per {
		sum += s.Get(telemetry.ChunksExecuted)
	}
	if sum != snap.Get(telemetry.ChunksExecuted) {
		t.Fatalf("per-member chunks sum %d != total %d", sum, snap.Get(telemetry.ChunksExecuted))
	}
}

// TestStealRandomVictimStress is the -race stress: repeated loops on a
// wide team with randomized per-chunk delays, so victim order, steal
// interleavings and the last-element pop/steal race all get exercised
// under the race detector.
func TestStealRandomVictimStress(t *testing.T) {
	iters := 30
	if testing.Short() {
		iters = 8
	}
	team := NewTeam(8)
	defer team.Close()
	rng := rand.New(rand.NewSource(1))
	for it := 0; it < iters; it++ {
		lo := rng.Intn(100) - 50
		n := 1 + rng.Intn(5000)
		grain := rng.Intn(64) // 0 = auto
		var total atomic.Int64
		c := NewChunker(Steal(grain), lo, lo+n, team.Size())
		team.Run(func(tid int) {
			c.For(tid, func(from, to int) {
				if (from+tid)%7 == 0 {
					time.Sleep(time.Duration(from%3) * time.Microsecond)
				}
				total.Add(int64(to - from))
			})
		})
		if got := total.Load(); got != int64(n) {
			t.Fatalf("iter %d: covered %d of %d iterations", it, got, n)
		}
	}
}

// TestStealGrainSplitAndCoalesce pins the adaptive grain controller from
// both sides: a stalled-straggler run must split stolen oversized chunks
// (far halves pushed back), and an uncontended single-member run must
// coalesce adjacent seed chunks into fewer, larger body calls.
func TestStealGrainSplitAndCoalesce(t *testing.T) {
	// Split side: 2 members, the first chunk stalls, the other member
	// steals the straggler's large seed chunks (seeded at slice/32 >>
	// grain 8) and must split.
	team := NewTeam(2)
	defer team.Close()
	rec := telemetry.NewRecorder("steal-split", team.Size())
	c := NewChunker(Steal(8), 0, 100_000, team.Size())
	c.SetRecorder(rec)
	s := newStraggler(0, 100_000, team.Size())
	team.Run(func(tid int) {
		c.For(tid, func(from, to int) { s.chunk(t, from) })
	})
	snap := rec.Snapshot()
	if snap.Get(telemetry.Steals) == 0 {
		t.Fatalf("no steals under a stalled straggler; counters: %v", snap)
	}
	if snap.Get(telemetry.GrainSplits) == 0 {
		t.Fatalf("oversized stolen chunks were never split; counters: %v", snap)
	}

	// Coalesce side: a single-member team never steals, so every pop may
	// merge up to stealCoalesceMax seed chunks.
	solo := NewTeam(1)
	defer solo.Close()
	srec := telemetry.NewRecorder("steal-coalesce", 1)
	sc := NewChunker(Steal(0), 0, 100_000, 1)
	sc.SetRecorder(srec)
	solo.Run(func(tid int) { sc.For(tid, func(from, to int) {}) })
	ssnap := srec.Snapshot()
	if ssnap.Get(telemetry.GrainCoalesces) == 0 {
		t.Fatalf("uncontended run never coalesced; counters: %v", ssnap)
	}
	if got, want := ssnap.Get(telemetry.ChunksExecuted), uint64(stealSeedChunks); got >= want {
		t.Fatalf("coalescing should cut chunk count below %d seeds, executed %d", want, got)
	}
}

// TestStealChunkDone pins that the steal path goes through the
// same chunk wrappers as every other schedule: the chunk-done hook fires
// once per executed chunk, on the executing member's goroutine.
func TestStealChunkDone(t *testing.T) {
	team := NewTeam(4)
	defer team.Close()
	rec := telemetry.NewRecorder("steal-hook", team.Size())
	var hooks atomic.Int64
	c := NewChunker(Steal(16), 0, 10_000, team.Size())
	c.SetRecorder(rec)
	c.SetChunkDone(func(tid int) { hooks.Add(1) })
	team.Run(func(tid int) { c.For(tid, func(from, to int) {}) })
	chunks := rec.Snapshot().Get(telemetry.ChunksExecuted)
	if hooks.Load() != int64(chunks) {
		t.Fatalf("chunk-done fired %d times for %d chunks", hooks.Load(), chunks)
	}
	if chunks == 0 {
		t.Fatal("no chunks executed")
	}
}

// TestStealOffPathNoAlloc pins the telemetry-off steady state: with no
// recorder attached, driving a whole steal loop allocates nothing beyond
// the Chunker construction itself (deques included, one allocation
// set per loop — same class as every schedule's Chunker). The For calls
// themselves must be allocation-free.
func TestStealOffPathNoAlloc(t *testing.T) {
	const runs = 32
	chunkers := make([]*Chunker, runs+1)
	for i := range chunkers {
		chunkers[i] = NewChunker(Steal(32), 0, 4096, 1)
	}
	var idx int
	sink := 0
	allocs := testing.AllocsPerRun(runs, func() {
		c := chunkers[idx]
		idx++
		c.For(0, func(from, to int) { sink += to - from })
	})
	if allocs != 0 {
		t.Fatalf("steal For allocated %.1f times per loop with telemetry off, want 0", allocs)
	}
	if sink == 0 {
		t.Fatal("loop body never ran")
	}
}

// TestDequeLastElementRace hammers the single-element pop/steal race:
// exactly one of owner and thief may win each element.
func TestDequeLastElementRace(t *testing.T) {
	iters := 20_000
	if testing.Short() {
		iters = 2_000
	}
	var d deque
	for i := 0; i < iters; i++ {
		d.push(chunk{from: int32(i), to: int32(i + 1)})
		got := make(chan chunk, 2)
		go func() {
			if c, ok := d.steal(); ok {
				got <- c
			} else {
				got <- chunk{from: -1, to: -1}
			}
		}()
		var wins int
		if c, ok := d.pop(); ok {
			wins++
			if c.from != int32(i) {
				t.Fatalf("pop returned %v, want from=%d", c, i)
			}
		}
		c := <-got
		if c.from >= 0 {
			wins++
			if c.from != int32(i) {
				t.Fatalf("steal returned %v, want from=%d", c, i)
			}
		}
		if wins != 1 {
			t.Fatalf("element %d claimed %d times", i, wins)
		}
	}
}

// TestDequeFullRing pins the fixed-capacity contract: push reports
// failure at dequeCap and the ring drains FIFO-from-top/LIFO-from-bottom
// without loss.
func TestDequeFullRing(t *testing.T) {
	var d deque
	for i := 0; i < dequeCap; i++ {
		if !d.push(chunk{from: int32(i), to: int32(i + 1)}) {
			t.Fatalf("push %d failed below capacity %d", i, dequeCap)
		}
	}
	if d.push(chunk{from: 0, to: 1}) {
		t.Fatal("push succeeded on a full ring")
	}
	// Steal half from the top (oldest first), pop the rest (newest first).
	for i := 0; i < dequeCap/2; i++ {
		c, ok := d.steal()
		if !ok || c.from != int32(i) {
			t.Fatalf("steal %d: got %v ok=%v", i, c, ok)
		}
	}
	for i := dequeCap - 1; i >= dequeCap/2; i-- {
		c, ok := d.pop()
		if !ok || c.from != int32(i) {
			t.Fatalf("pop: got %v ok=%v, want from=%d", c, ok, i)
		}
	}
	if _, ok := d.pop(); ok {
		t.Fatal("pop succeeded on a drained ring")
	}
	if _, ok := d.steal(); ok {
		t.Fatal("steal succeeded on a drained ring")
	}
}

// TestParseSchedule pins the string forms the CLIs accept, including the
// round-trip of Schedule.String.
func TestParseSchedule(t *testing.T) {
	good := []struct {
		in   string
		want Schedule
	}{
		{"static", Static()},
		{"static:64", StaticChunk(64)},
		{"static-chunk:8", StaticChunk(8)},
		{"static-chunk(8)", StaticChunk(8)},
		{"dynamic", Dynamic(0)},
		{"dynamic:16", Dynamic(16)},
		{"guided", Guided(0)},
		{"guided(4)", Guided(4)},
		{"steal", Steal(0)},
		{"steal:4096", Steal(4096)},
	}
	for _, tc := range good {
		got, err := ParseSchedule(tc.in)
		if err != nil {
			t.Fatalf("ParseSchedule(%q): %v", tc.in, err)
		}
		if got != tc.want {
			t.Fatalf("ParseSchedule(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
	for _, s := range []Schedule{Static(), StaticChunk(32), Dynamic(8), Guided(8), Steal(0), Steal(128)} {
		got, err := ParseSchedule(s.String())
		if err != nil {
			t.Fatalf("round-trip %v: %v", s, err)
		}
		if got != s {
			t.Fatalf("round-trip %v parsed as %v", s, got)
		}
	}
	for _, bad := range []string{"", "fifo", "dynamic:x", "steal:-4", "static-chunk", "guided:0"} {
		if _, err := ParseSchedule(bad); err == nil {
			t.Fatalf("ParseSchedule(%q) succeeded, want error", bad)
		}
	}
}

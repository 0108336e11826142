package par

import (
	"errors"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func TestTeamRunExecutesEveryMemberOnce(t *testing.T) {
	for _, n := range []int{1, 2, 4, 7} {
		team := NewTeam(n)
		counts := make([]atomic.Int32, n)
		for rep := 0; rep < 3; rep++ { // reuse across regions
			team.Run(func(tid int) { counts[tid].Add(1) })
		}
		for tid := range counts {
			if got := counts[tid].Load(); got != 3 {
				t.Errorf("n=%d tid=%d ran %d times, want 3", n, tid, got)
			}
		}
		team.Close()
	}
}

func TestTeamSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewTeam(0) did not panic")
		}
	}()
	NewTeam(0)
}

func TestRunAfterClosePanics(t *testing.T) {
	team := NewTeam(2)
	team.Close()
	team.Close() // idempotent
	defer func() {
		if recover() == nil {
			t.Error("Run after Close did not panic")
		}
	}()
	team.Run(func(int) {})
}

// memberSlot is one member's record of the region it last ran, padded to
// a cache line so members do not share one.
type memberSlot struct {
	region int
	runs   int
	_      [48]byte
}

// TestRunSeesCurrentBody pins the fork handoff: every member must run the
// body of the current region, exactly once. Each region is a fresh
// closure, so a worker that read a stale body would write an old region
// number. A team larger than GOMAXPROCS never spins for the next region,
// so the second size covers the park-and-broadcast wake on every region
// while the first mostly takes the spin return.
func TestRunSeesCurrentBody(t *testing.T) {
	for _, n := range []int{2, runtime.GOMAXPROCS(0) + 2} {
		team := NewTeam(n)
		slots := make([]memberSlot, n)
		for k := 1; k <= 2000; k++ {
			team.Run(func(tid int) {
				slots[tid].region = k
				slots[tid].runs++
			})
			for tid := range slots {
				if s := slots[tid]; s.region != k || s.runs != 1 {
					team.Close()
					t.Fatalf("n=%d region %d: member %d saw region %d and ran %d times, want region %d once",
						n, k, tid, s.region, s.runs, k)
				}
				slots[tid].runs = 0
			}
		}
		team.Close()
	}
}

// TestCloseStopsWorkers checks that Close ends every worker goroutine,
// including workers still spinning for the next region right after one.
func TestCloseStopsWorkers(t *testing.T) {
	base := runtime.NumGoroutine()
	team := NewTeam(4)
	team.Run(func(int) {})
	team.Close()
	team.Close() // idempotent: no second fork
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines 1s after Close, want at most %d", runtime.NumGoroutine(), base)
		}
		runtime.Gosched()
	}
}

// TestRunNoAlloc holds the region path to zero allocations with telemetry
// off, on a spinning team and on an oversubscribed (parking) one.
func TestRunNoAlloc(t *testing.T) {
	for _, n := range []int{2, runtime.GOMAXPROCS(0) + 2} {
		team := NewTeam(n)
		var sink atomic.Int64
		body := func(tid int) { sink.Add(int64(tid)) }
		allocs := testing.AllocsPerRun(200, func() { team.Run(body) })
		team.Close()
		if allocs != 0 {
			t.Errorf("n=%d: Run allocated %.1f times per region with telemetry off, want 0", n, allocs)
		}
	}
}

func TestBarrierSynchronizes(t *testing.T) {
	const n = 4
	team := NewTeam(n)
	defer team.Close()
	var before, after atomic.Int32
	team.Run(func(tid int) {
		before.Add(1)
		team.Barrier()
		// Every member must observe all n pre-barrier increments.
		if got := before.Load(); got != n {
			t.Errorf("tid %d saw %d pre-barrier arrivals, want %d", tid, got, n)
		}
		after.Add(1)
	})
	if after.Load() != n {
		t.Errorf("after=%d", after.Load())
	}
}

func TestBarrierReusableAcrossPhases(t *testing.T) {
	const n, phases = 3, 5
	team := NewTeam(n)
	defer team.Close()
	var phase atomic.Int32
	team.Run(func(tid int) {
		for p := 0; p < phases; p++ {
			if tid == 0 {
				phase.Store(int32(p))
			}
			team.Barrier()
			if got := phase.Load(); got != int32(p) {
				t.Errorf("tid %d phase %d read %d", tid, p, got)
			}
			team.Barrier()
		}
	})
}

// coverage runs ParallelFor and checks every index in [lo,hi) is visited
// exactly once.
func coverage(t *testing.T, team *Team, lo, hi int, s Schedule) {
	t.Helper()
	n := hi - lo
	visits := make([]atomic.Int32, n)
	ParallelFor(team, lo, hi, s, func(tid, from, to int) {
		if from < lo || to > hi || from > to {
			t.Errorf("%v: chunk [%d,%d) outside [%d,%d)", s, from, to, lo, hi)
		}
		for i := from; i < to; i++ {
			visits[i-lo].Add(1)
		}
	})
	for i := range visits {
		if got := visits[i].Load(); got != 1 {
			t.Fatalf("%v: index %d visited %d times", s, lo+i, got)
		}
	}
}

func TestParallelForCoverageAllSchedules(t *testing.T) {
	team := NewTeam(4)
	defer team.Close()
	scheds := []Schedule{
		Static(), StaticChunk(1), StaticChunk(3), StaticChunk(100),
		Dynamic(0), Dynamic(1), Dynamic(7), Guided(0), Guided(4),
	}
	ranges := [][2]int{{0, 0}, {0, 1}, {0, 4}, {0, 5}, {3, 103}, {-10, 10}, {0, 1000}}
	for _, s := range scheds {
		for _, r := range ranges {
			coverage(t, team, r[0], r[1], s)
		}
	}
}

func TestParallelForCoverageProperty(t *testing.T) {
	team := NewTeam(3)
	defer team.Close()
	f := func(loRaw, spanRaw uint16, kindRaw, chunkRaw uint8) bool {
		lo := int(loRaw) % 500
		hi := lo + int(spanRaw)%700
		var s Schedule
		switch kindRaw % 4 {
		case 0:
			s = Static()
		case 1:
			s = StaticChunk(int(chunkRaw)%64 + 1)
		case 2:
			s = Dynamic(int(chunkRaw) % 64)
		default:
			s = Guided(int(chunkRaw) % 64)
		}
		n := hi - lo
		visits := make([]atomic.Int32, n)
		ParallelFor(team, lo, hi, s, func(tid, from, to int) {
			for i := from; i < to; i++ {
				visits[i-lo].Add(1)
			}
		})
		for i := range visits {
			if visits[i].Load() != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestStaticRangePartition(t *testing.T) {
	f := func(loRaw int16, spanRaw uint16, nRaw uint8) bool {
		lo := int(loRaw)
		hi := lo + int(spanRaw)
		n := int(nRaw)%16 + 1
		prev := lo
		for tid := 0; tid < n; tid++ {
			from, to := StaticRange(lo, hi, tid, n)
			if from != prev || to < from {
				return false
			}
			prev = to
		}
		return prev == hi || hi <= lo
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStaticRangeBalance(t *testing.T) {
	// Chunk sizes must differ by at most one.
	for _, tc := range []struct{ lo, hi, n int }{{0, 100, 7}, {5, 6, 4}, {0, 3, 8}} {
		minSz, maxSz := 1<<30, -1
		for tid := 0; tid < tc.n; tid++ {
			from, to := StaticRange(tc.lo, tc.hi, tid, tc.n)
			sz := to - from
			if sz < minSz {
				minSz = sz
			}
			if sz > maxSz {
				maxSz = sz
			}
		}
		if maxSz-minSz > 1 {
			t.Errorf("%+v: chunk sizes range %d..%d", tc, minSz, maxSz)
		}
	}
}

func TestStaticRangeEmpty(t *testing.T) {
	from, to := StaticRange(5, 5, 0, 4)
	if from != to {
		t.Errorf("empty range: [%d,%d)", from, to)
	}
	from, to = StaticRange(5, 3, 2, 4)
	if from != to {
		t.Errorf("inverted range: [%d,%d)", from, to)
	}
}

func TestGuidedChunksShrink(t *testing.T) {
	// With a single member, guided chunks must be non-increasing down to
	// the minimum chunk.
	team := NewTeam(1)
	defer team.Close()
	c := team.Loop(Guided(2), 0, 1000)
	last := 1 << 30
	c.For(0, func(from, to int) {
		sz := to - from
		if sz > last {
			t.Errorf("guided chunk grew: %d after %d", sz, last)
		}
		if sz < 2 && to != 1000 {
			t.Errorf("guided chunk %d below minimum", sz)
		}
		last = sz
	})
}

func TestDynamicMoreThreadsThanWork(t *testing.T) {
	team := NewTeam(8)
	defer team.Close()
	coverage(t, team, 0, 3, Dynamic(1))
}

func TestScheduleValidate(t *testing.T) {
	team := NewTeam(2)
	defer team.Close()
	for _, s := range []Schedule{
		{Kind: KindStaticChunk, Chunk: 0},
		{Kind: KindDynamic, Chunk: 0},
		{Kind: KindGuided, Chunk: -1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("schedule %+v did not panic", s)
				}
			}()
			team.Loop(s, 0, 10)
		}()
	}
}

func TestScheduleString(t *testing.T) {
	cases := map[string]Schedule{
		"static":          Static(),
		"static-chunk(8)": StaticChunk(8),
		"dynamic(1)":      Dynamic(0),
		"guided(4)":       Guided(4),
	}
	for want, s := range cases {
		if got := s.String(); got != want {
			t.Errorf("String()=%q, want %q", got, want)
		}
	}
}

func TestTeamRunConcurrencyIsReal(t *testing.T) {
	// All members must be in flight simultaneously: rendezvous via
	// WaitGroup would deadlock under sequential execution of members.
	const n = 4
	team := NewTeam(n)
	defer team.Close()
	var wg sync.WaitGroup
	wg.Add(n)
	team.Run(func(tid int) {
		wg.Done()
		wg.Wait() // returns only once every member arrived
	})
}

func TestWorkerPanicPropagatesAndTeamSurvives(t *testing.T) {
	team := NewTeam(4)
	defer team.Close()
	caught := func() (r any) {
		defer func() { r = recover() }()
		team.Run(func(tid int) {
			if tid == 2 {
				panic("boom from worker")
			}
		})
		return nil
	}()
	wp, ok := caught.(*WorkerPanic)
	if !ok {
		t.Fatalf("caught %T %v, want *WorkerPanic", caught, caught)
	}
	if wp.Tid != 2 || wp.Value != "boom from worker" {
		t.Fatalf("caught tid=%d value=%v", wp.Tid, wp.Value)
	}
	// The team must remain usable after the panic.
	var ran atomic.Int32
	team.Run(func(tid int) { ran.Add(1) })
	if ran.Load() != 4 {
		t.Errorf("after panic: %d members ran", ran.Load())
	}
}

func TestMasterPanicStillJoinsWorkers(t *testing.T) {
	team := NewTeam(3)
	defer team.Close()
	var workersDone atomic.Int32
	caught := func() (r any) {
		defer func() { r = recover() }()
		team.Run(func(tid int) {
			if tid == 0 {
				panic("master boom")
			}
			workersDone.Add(1)
		})
		return nil
	}()
	wp, ok := caught.(*WorkerPanic)
	if !ok || wp.Tid != 0 || wp.Value != "master boom" {
		t.Fatalf("caught %#v", caught)
	}
	if workersDone.Load() != 2 {
		t.Errorf("workers done: %d", workersDone.Load())
	}
	team.Run(func(int) {}) // still usable
}

func TestPanicValuePreserved(t *testing.T) {
	team := NewTeam(2)
	defer team.Close()
	type custom struct{ code int }
	caught := func() (r any) {
		defer func() { r = recover() }()
		team.Run(func(tid int) {
			if tid == 1 {
				panic(custom{42})
			}
		})
		return nil
	}()
	wp, ok := caught.(*WorkerPanic)
	if !ok {
		t.Fatalf("caught %T, want *WorkerPanic", caught)
	}
	if c, ok := wp.Value.(custom); !ok || c.code != 42 {
		t.Errorf("wrapped value %#v", wp.Value)
	}
}

// explodeInWorker panics from a named helper so the stack-preservation
// test can look for this frame in the captured trace.
func explodeInWorker() { panic("kept stack") }

func TestWorkerPanicPreservesOriginalStack(t *testing.T) {
	team := NewTeam(3)
	defer team.Close()
	caught := func() (r any) {
		defer func() { r = recover() }()
		team.Run(func(tid int) {
			if tid == 1 {
				explodeInWorker()
			}
		})
		return nil
	}()
	wp, ok := caught.(*WorkerPanic)
	if !ok {
		t.Fatalf("caught %T, want *WorkerPanic", caught)
	}
	// The captured stack must show the frame that actually panicked, not
	// just the join site in Run.
	if !strings.Contains(string(wp.Stack), "explodeInWorker") {
		t.Errorf("stack does not name the panicking frame:\n%s", wp.Stack)
	}
	if !strings.Contains(wp.Error(), "explodeInWorker") {
		t.Errorf("Error() omits the original stack: %q", wp.Error())
	}
	if !strings.Contains(wp.Error(), "team member 1") {
		t.Errorf("Error() omits the member id: %q", wp.Error())
	}
}

func TestWorkerPanicUnwrap(t *testing.T) {
	team := NewTeam(2)
	defer team.Close()
	sentinel := errors.New("sentinel failure")
	caught := func() (r any) {
		defer func() { r = recover() }()
		team.Run(func(tid int) {
			if tid == 1 {
				panic(sentinel)
			}
		})
		return nil
	}()
	wp, ok := caught.(*WorkerPanic)
	if !ok {
		t.Fatalf("caught %T, want *WorkerPanic", caught)
	}
	if !errors.Is(wp, sentinel) {
		t.Errorf("errors.Is does not reach the original error")
	}
}

func TestTimingAccumulatesRegions(t *testing.T) {
	const n = 4
	team := NewTeam(n)
	defer team.Close()
	tm := NewTiming(n)
	team.SetTiming(tm)
	const regions = 3
	for r := 0; r < regions; r++ {
		team.Run(func(tid int) {
			time.Sleep(time.Millisecond)
			team.Barrier()
		})
	}
	s := tm.Snapshot()
	if s.Regions != regions {
		t.Fatalf("regions = %d, want %d", s.Regions, regions)
	}
	if s.Wall < regions*time.Millisecond {
		t.Errorf("wall %v below the slept floor", s.Wall)
	}
	if len(s.Busy) != n {
		t.Fatalf("busy has %d slots, want %d", len(s.Busy), n)
	}
	for tid, b := range s.Busy {
		if b < regions*time.Millisecond {
			t.Errorf("member %d busy %v below the slept floor", tid, b)
		}
	}
	if s.MaxBusy() < s.MeanBusy() {
		t.Errorf("max busy %v < mean %v", s.MaxBusy(), s.MeanBusy())
	}
	if li := s.LoadImbalance(); li < 1.0 {
		t.Errorf("load imbalance %v < 1", li)
	}
	tm.Reset()
	if s := tm.Snapshot(); s.Regions != 0 || s.Wall != 0 || s.MaxBusy() != 0 {
		t.Errorf("reset left %+v", s)
	} else if s.LoadImbalance() != 0 {
		t.Errorf("empty snapshot imbalance %v, want 0", s.LoadImbalance())
	}
	team.SetTiming(nil)
	team.Run(func(int) {}) // timing off again: must not accumulate
	if got := tm.Snapshot().Regions; got != 0 {
		t.Errorf("detached timing recorded %d regions", got)
	}
}

func TestTimingSizeMismatchPanics(t *testing.T) {
	team := NewTeam(2)
	defer team.Close()
	defer func() {
		if recover() == nil {
			t.Error("mismatched SetTiming did not panic")
		}
	}()
	team.SetTiming(NewTiming(3))
}

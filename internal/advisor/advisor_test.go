package advisor

import (
	"math/rand"
	"strings"
	"testing"

	"spray"
	"spray/internal/par"
)

// record simulates a region: split [0, iters) statically over threads and
// let body emit updates through the tape.
func record(n, threads, block, iters int, body func(tape Tape, tid, i int)) *Recorder {
	r := NewRecorder(n, threads, block)
	for tid := 0; tid < threads; tid++ {
		from, to := par.StaticRange(0, iters, tid, threads)
		tape := r.Tape(tid)
		for i := from; i < to; i++ {
			body(tape, tid, i)
		}
	}
	return r
}

func TestRecommendKeeperForOwnershipPattern(t *testing.T) {
	// Loop index maps one-to-one onto the array (the paper's conv
	// back-propagation shape).
	const n, threads = 10000, 4
	r := record(n, threads, 0, n, func(tape Tape, tid, i int) {
		tape.Add(i, 1)
		if i+1 < n {
			tape.Add(i+1, 1)
		}
	})
	rep := r.Analyze()
	rec := rep.Recommend()
	if rec.Strategy != spray.Keeper() {
		t.Errorf("recommended %v (%s), want keeper\nreport:\n%s", rec.Strategy, rec.Reason, rep)
	}
	if rep.OwnershipMatch < 0.9 {
		t.Errorf("ownership match %v", rep.OwnershipMatch)
	}
}

func TestRecommendAtomicForScatteredAccess(t *testing.T) {
	// Each thread touches a few random locations once: low reuse, low
	// conflicts.
	const n, threads = 1 << 20, 8
	rng := rand.New(rand.NewSource(1))
	r := NewRecorder(n, threads, 0)
	for tid := 0; tid < threads; tid++ {
		tape := r.Tape(tid)
		for k := 0; k < 200; k++ {
			tape.Add(rng.Intn(n), 1)
		}
	}
	rep := r.Analyze()
	rec := rep.Recommend()
	if rec.Strategy != spray.Atomic() {
		t.Errorf("recommended %v (%s), want atomic\nreport:\n%s", rec.Strategy, rec.Reason, rep)
	}
}

func TestRecommendBlockForLocalClusters(t *testing.T) {
	// Threads hammer interleaved dense clusters far from their keeper
	// ranges: high block occupancy and reuse, ownership mismatch.
	const n, threads, block = 1 << 16, 4, 256
	r := NewRecorder(n, threads, block)
	for tid := 0; tid < threads; tid++ {
		tape := r.Tape(tid)
		// Each thread owns clusters spread across the whole array.
		for c := 0; c < 8; c++ {
			base := ((c*threads + (tid+1)%threads) * 977 * block) % (n - block)
			for rep := 0; rep < 3; rep++ {
				for j := 0; j < block; j++ {
					tape.Add(base+j, 1)
				}
			}
		}
	}
	rep := r.Analyze()
	rec := rep.Recommend()
	if rec.Strategy != spray.BlockCAS(block) {
		t.Errorf("recommended %v (%s), want block-cas-%d\nreport:\n%s", rec.Strategy, rec.Reason, block, rep)
	}
	if rep.BlockOccupancy < 0.9 {
		t.Errorf("occupancy %v", rep.BlockOccupancy)
	}
}

func TestRecommendDenseForSmallTeamsDenseAccess(t *testing.T) {
	const n, threads = 4096, 2
	r := record(n, threads, 0, n, func(tape Tape, tid, i int) {
		// Everyone touches everything (transposed access).
		for k := 0; k < 4; k++ {
			tape.Add((i*4+k*1031)%n, 1)
		}
	})
	rep := r.Analyze()
	if rep.Density < 0.5 {
		t.Skipf("pattern not dense enough: %v", rep.Density)
	}
	rec := rep.Recommend()
	if rec.Strategy != spray.Dense() {
		t.Errorf("recommended %v (%s), want dense\nreport:\n%s", rec.Strategy, rec.Reason, rep)
	}
}

func TestRecommendBlockPrivateForContention(t *testing.T) {
	// All threads hammer the same small hot region repeatedly.
	const n, threads = 1 << 16, 8
	r := NewRecorder(n, threads, 0)
	for tid := 0; tid < threads; tid++ {
		tape := r.Tape(tid)
		for rep := 0; rep < 4; rep++ {
			for j := 0; j < 512; j++ {
				tape.Add(j, 1)
			}
		}
	}
	rep := r.Analyze()
	if rep.ConflictRate != 1 {
		t.Errorf("conflict rate %v, want 1", rep.ConflictRate)
	}
	rec := rep.Recommend()
	// High occupancy + reuse hits the block rule first; either block
	// flavor is a correct call for this pattern.
	if rec.Strategy != spray.BlockCAS(rep.Block) && rec.Strategy != spray.BlockPrivate(rep.Block) {
		t.Errorf("recommended %v (%s), want a block strategy\nreport:\n%s", rec.Strategy, rec.Reason, rep)
	}
}

func TestMetricsExactOnHandPattern(t *testing.T) {
	// 2 threads over 8 elements, block 4.
	r := NewRecorder(8, 2, 4)
	t0 := r.Tape(0)
	t0.Add(0, 1)
	t0.Add(0, 1) // reuse
	t0.Add(5, 1) // foreign (owner 1), conflict with thread 1
	t1 := r.Tape(1)
	t1.Add(5, 1)
	t1.Add(6, 1)
	rep := r.Analyze()
	if rep.Updates != 5 {
		t.Errorf("updates %d", rep.Updates)
	}
	if rep.TouchedPerThread != 2 { // (2 + 2) / 2
		t.Errorf("touched/thread %v", rep.TouchedPerThread)
	}
	if rep.ReusePerIndex != 1.25 { // 5 updates / 4 (thread,index) pairs
		t.Errorf("reuse %v", rep.ReusePerIndex)
	}
	if rep.ConflictRate != 1.0/3.0 { // of {0,5,6}, only 5 is shared
		t.Errorf("conflict %v", rep.ConflictRate)
	}
	// Ownership: thread 0 owns 0..3, thread 1 owns 4..7. Owned updates:
	// t0's two Adds of 0, t1's 5 and 6 → 4 of 5.
	if rep.OwnershipMatch != 0.8 {
		t.Errorf("ownership %v", rep.OwnershipMatch)
	}
	// Blocks touched: t0 {0,1}, t1 {1} → occupancy (1/4 + 1/4 + 2/4)/3.
	if d := rep.BlockOccupancy - (0.25+0.25+0.5)/3; d > 1e-12 || d < -1e-12 {
		t.Errorf("occupancy %v", rep.BlockOccupancy)
	}
}

func TestTopConflicts(t *testing.T) {
	r := NewRecorder(100, 3, 0)
	for tid := 0; tid < 3; tid++ {
		tape := r.Tape(tid)
		tape.Add(7, 1) // all three threads
		if tid < 2 {
			tape.Add(9, 1) // two threads
		}
		tape.Add(tid*10, 1) // private
	}
	top := r.TopConflicts(5)
	if len(top) != 2 || top[0] != 7 || top[1] != 9 {
		t.Errorf("top conflicts %v", top)
	}
}

func TestReportStringContainsRecommendation(t *testing.T) {
	r := record(1000, 2, 0, 1000, func(tape Tape, tid, i int) { tape.Add(i, 1) })
	s := r.Analyze().String()
	for _, want := range []string{"recommendation", "keeper", "ownership match"} {
		if !strings.Contains(s, want) {
			t.Errorf("report missing %q:\n%s", want, s)
		}
	}
}

func TestRecorderValidation(t *testing.T) {
	for name, fn := range map[string]func(){
		"zero n":       func() { NewRecorder(0, 1, 0) },
		"zero threads": func() { NewRecorder(10, 0, 0) },
		"bad block":    func() { NewRecorder(10, 1, 100) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestBulkRecordingMatchesElementWise(t *testing.T) {
	// The same workload expressed through Add, AddN and Scatter must
	// analyze identically: the tape's bulk entry points exist so bulk-path
	// loop bodies can be recorded unchanged.
	const n, threads, iters = 4096, 4, 1024
	elem := NewRecorder(n, threads, 0)
	bulk := NewRecorder(n, threads, 0)
	for tid := 0; tid < threads; tid++ {
		from, to := par.StaticRange(0, iters, tid, threads)
		et, bt := elem.Tape(tid), bulk.Tape(tid)
		for i := from; i < to; i++ {
			base := (i * 3) % (n - 8)
			vals := []float64{1, 2, 3, 4}
			for j, v := range vals {
				et.Add(base+j, v)
			}
			bt.AddN(base, vals)
			idx := []int32{int32(i % n), int32((i * 7) % n)}
			for j, ix := range idx {
				et.Add(int(ix), vals[j])
			}
			bt.Scatter(idx, vals[:len(idx)])
		}
		et.Done()
		bt.Done()
	}
	er, br := elem.Analyze(), bulk.Analyze()
	if er != br {
		t.Errorf("bulk recording diverges from element-wise:\nelem: %+v\nbulk: %+v", er, br)
	}
	if er.Updates != iters*6 {
		t.Errorf("updates = %d, want %d", er.Updates, iters*6)
	}
	if eRec, bRec := er.Recommend(), br.Recommend(); eRec != bRec {
		t.Errorf("recommendations diverge: %v vs %v", eRec, bRec)
	}
}

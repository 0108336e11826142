// Package advisor analyzes a sparse reduction's access pattern and
// recommends a SPRAY strategy. The paper's motivation section argues that
// the best scheme "depends on the hardware, application, and input data"
// and its outlook asks for machinery that moves the choice away from the
// user. This package makes the choice offline: record one representative
// region with a Recorder, then read off density, conflict and locality
// metrics and a recommended strategy with a human-readable justification.
// A pattern with no dominant trait gets block-cas: in the two-thread
// ablation of EXPERIMENTS.md its worst loss to a point's best entry was
// 1.44x, while every other strategy lost 2.3x or more somewhere.
package advisor

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"

	"spray"
)

// Recorder captures which (thread, index) updates one parallel region
// performs. It implements the spray.Accessor contract (Add/Done) so a
// workload's loop body can run against it unchanged, one Recorder per
// thread via Tape.
type Recorder struct {
	n       int
	threads int
	tapes   []tape
	block   int
	shift   uint
}

type tape struct {
	updates int
	touched map[int32]int // index -> update count
}

// NewRecorder prepares to record a region over an array of length n run
// by the given number of threads. blockSize (power of two, <= 0 for the
// spray default) sets the granularity of the block-locality metrics.
func NewRecorder(n, threads, blockSize int) *Recorder {
	if n <= 0 || threads <= 0 {
		panic(fmt.Sprintf("advisor: bad recorder shape n=%d threads=%d", n, threads))
	}
	if blockSize <= 0 {
		blockSize = spray.DefaultBlockSize
	}
	if blockSize&(blockSize-1) != 0 {
		panic(fmt.Sprintf("advisor: block size %d not a power of two", blockSize))
	}
	r := &Recorder{
		n:       n,
		threads: threads,
		tapes:   make([]tape, threads),
		block:   blockSize,
		shift:   uint(bits.TrailingZeros(uint(blockSize))),
	}
	for t := range r.tapes {
		r.tapes[t].touched = make(map[int32]int)
	}
	return r
}

// Tape is the per-thread recording accessor.
type Tape struct {
	t *tape
}

// Add records one update of index i (the value is irrelevant to the
// access pattern).
func (tp Tape) Add(i int, _ float64) {
	tp.t.updates++
	tp.t.touched[int32(i)]++
}

// AddN records a contiguous run of updates, the bulk analogue of Add: a
// workload driven through the bulk fast path records exactly the same
// access pattern as its element-wise form.
func (tp Tape) AddN(base int, vals []float64) {
	tp.t.updates += len(vals)
	for j := range vals {
		tp.t.touched[int32(base+j)]++
	}
}

// Scatter records a gathered batch of updates.
func (tp Tape) Scatter(idx []int32, vals []float64) {
	tp.t.updates += len(idx)
	for _, i := range idx {
		tp.t.touched[i]++
	}
}

// Done is a no-op, present to satisfy the accessor contract.
func (tp Tape) Done() {}

// Tape returns the recording accessor for thread tid.
func (r *Recorder) Tape(tid int) Tape { return Tape{t: &r.tapes[tid]} }

// Report is the analysis of one recorded region.
type Report struct {
	N       int
	Threads int
	Block   int

	Updates          int     // total updates recorded
	TouchedPerThread float64 // mean distinct indices touched per thread
	Density          float64 // mean touched fraction of the array per thread
	ReusePerIndex    float64 // mean updates per touched (thread, index) pair
	ConflictRate     float64 // fraction of touched indices written by >1 thread
	BlockOccupancy   float64 // mean touched fraction within touched blocks
	BlocksPerThread  float64 // mean touched blocks per thread
	OwnershipMatch   float64 // fraction of updates landing in the updater's static keeper range
}

// Analyze computes the pattern metrics from the recording.
func (r *Recorder) Analyze() Report {
	rep := Report{N: r.n, Threads: r.threads, Block: r.block}
	chunk := (r.n + r.threads - 1) / r.threads
	if chunk < 1 {
		chunk = 1
	}
	owners := make(map[int32]int8) // 0 unseen, 1 one thread, 2 many
	var touchedTotal, ownedUpdates int
	var occupancySum float64
	var blockCount int
	for tid := range r.tapes {
		t := &r.tapes[tid]
		rep.Updates += t.updates
		touchedTotal += len(t.touched)
		blocks := make(map[int32]int)
		for idx, cnt := range t.touched {
			if int(idx)/chunk == tid {
				ownedUpdates += cnt
			}
			blocks[idx>>r.shift]++
			switch owners[idx] {
			case 0:
				owners[idx] = 1
			case 1:
				owners[idx] = 2
			}
		}
		for b, touched := range blocks {
			size := r.block
			if base := int(b) << r.shift; base+size > r.n {
				size = r.n - base
			}
			occupancySum += float64(touched) / float64(size)
		}
		blockCount += len(blocks)
	}
	if touchedTotal > 0 {
		rep.TouchedPerThread = float64(touchedTotal) / float64(r.threads)
		rep.Density = rep.TouchedPerThread / float64(r.n)
		rep.ReusePerIndex = float64(rep.Updates) / float64(touchedTotal)
	}
	var conflicted, distinct int
	for _, o := range owners {
		distinct++
		if o > 1 {
			conflicted++
		}
	}
	if distinct > 0 {
		rep.ConflictRate = float64(conflicted) / float64(distinct)
	}
	if blockCount > 0 {
		rep.BlockOccupancy = occupancySum / float64(blockCount)
		rep.BlocksPerThread = float64(blockCount) / float64(r.threads)
	}
	if rep.Updates > 0 {
		rep.OwnershipMatch = float64(ownedUpdates) / float64(rep.Updates)
	}
	return rep
}

// Recommendation pairs a strategy with its justification.
type Recommendation struct {
	Strategy spray.Strategy
	Reason   string
}

// Recommend applies the paper's qualitative guidance (§VII: "atomics are
// useful for avoiding memory overhead and where reduction accesses are
// few and without contention. Block-based reducers perform best when
// reduction accesses have high locality... The keeper reduction excels if
// the updated indices on each thread closely match the static ownership
// structure") as explicit rules over the measured metrics.
func (rep Report) Recommend() Recommendation {
	switch {
	case rep.OwnershipMatch >= 0.9:
		return Recommendation{spray.Keeper(), fmt.Sprintf(
			"%.0f%% of updates land in the updater's own static range — the keeper ownership model fits",
			100*rep.OwnershipMatch)}
	case rep.Density >= 0.5 && rep.Threads <= 4:
		return Recommendation{spray.Dense(), fmt.Sprintf(
			"threads touch %.0f%% of the array and the team is small — full privatization is cheap and contention-free",
			100*rep.Density)}
	case rep.BlockOccupancy >= 0.25 && rep.ReusePerIndex >= 1.5:
		return Recommendation{spray.BlockCAS(rep.Block), fmt.Sprintf(
			"touched blocks are %.0f%% occupied with %.1f updates per index — lazily privatized blocks amortize well",
			100*rep.BlockOccupancy, rep.ReusePerIndex)}
	case rep.ConflictRate <= 0.05 && rep.ReusePerIndex < 1.5:
		return Recommendation{spray.Atomic(), fmt.Sprintf(
			"only %.1f%% of touched indices are shared between threads and reuse is low — atomics avoid all memory overhead",
			100*rep.ConflictRate)}
	case rep.ConflictRate > 0.5:
		return Recommendation{spray.BlockPrivate(rep.Block), fmt.Sprintf(
			"%.0f%% of touched indices are contended — private blocks avoid synchronization entirely",
			100*rep.ConflictRate)}
	default:
		return Recommendation{spray.BlockCAS(rep.Block),
			"mixed pattern with no dominant trait — block claiming privatizes only the blocks a thread touches, the smallest worst-case loss of any strategy measured"}
	}
}

// String renders the report as an aligned table plus the recommendation.
func (rep Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "array length        %d\n", rep.N)
	fmt.Fprintf(&b, "threads             %d\n", rep.Threads)
	fmt.Fprintf(&b, "updates             %d\n", rep.Updates)
	fmt.Fprintf(&b, "touched/thread      %.1f (%.2f%% of array)\n", rep.TouchedPerThread, 100*rep.Density)
	fmt.Fprintf(&b, "reuse/index         %.2f\n", rep.ReusePerIndex)
	fmt.Fprintf(&b, "conflict rate       %.2f%%\n", 100*rep.ConflictRate)
	fmt.Fprintf(&b, "block occupancy     %.2f%% (block %d, %.1f blocks/thread)\n",
		100*rep.BlockOccupancy, rep.Block, rep.BlocksPerThread)
	fmt.Fprintf(&b, "ownership match     %.2f%%\n", 100*rep.OwnershipMatch)
	rec := rep.Recommend()
	fmt.Fprintf(&b, "recommendation      %s — %s\n", rec.Strategy, rec.Reason)
	return b.String()
}

// TopConflicts returns the k most-contended indices (touched by the most
// threads), for diagnosing hot spots.
func (r *Recorder) TopConflicts(k int) []int {
	count := map[int32]int{}
	for t := range r.tapes {
		for idx := range r.tapes[t].touched {
			count[idx]++
		}
	}
	type kv struct {
		idx int32
		n   int
	}
	all := make([]kv, 0, len(count))
	for idx, n := range count {
		if n > 1 {
			all = append(all, kv{idx, n})
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].n != all[j].n {
			return all[i].n > all[j].n
		}
		return all[i].idx < all[j].idx
	})
	if k > len(all) {
		k = len(all)
	}
	out := make([]int, k)
	for i := 0; i < k; i++ {
		out[i] = int(all[i].idx)
	}
	return out
}

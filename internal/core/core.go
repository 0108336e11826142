// Package core implements the paper's primary contribution: the SPRAY
// reducer objects. Each reducer wraps a target array and lets a team of
// goroutines accumulate `out[i] += v` contributions concurrently while the
// strategy decides how safety is achieved — full privatization (dense),
// atomics, key-value accumulation (map / B-tree), lazily privatized blocks
// (block-private / block-lock / block-CAS), or static ownership with
// update-request queues (keeper).
//
// Lifecycle (mirroring OpenMP declare-reduction): the constructor is cheap
// and wraps (array, size); Private(tid) is the per-thread `init`; Add is
// the overloaded `+=`; Finalize is the `reduce` fix-up that makes every
// contribution visible in the original array and returns the reducer to a
// reusable state for the next parallel region.
//
// Beyond the element-wise contract, every strategy in this package also
// implements the bulk fast path (BulkPrivate): AddN applies a contiguous
// run of contributions and Scatter applies a gathered batch. The bulk
// entry points pay one dynamic dispatch per batch instead of one per
// element, and each strategy exploits its own structure inside the batch
// (block reducers resolve the block pointer once per run, the keeper
// partitions a batch by owner in one pass, dense strategies reduce to
// plain vectorizable loops).
package core

import (
	"fmt"
	"math"

	"spray/internal/num"
	"spray/internal/par"
	"spray/internal/telemetry"
)

// Private is the per-thread accessor handed to the parallel region body.
// Implementations are not safe for use by more than the owning goroutine.
type Private[T num.Float] interface {
	// Add accumulates v into logical position i of the wrapped array.
	Add(i int, v T)
	// Done signals that the owning thread has finished its iterations
	// for the current region.
	Done()
}

// BulkPrivate extends Private with batch update entry points. Both
// methods are exactly equivalent to calling Add element by element in
// ascending batch order (j = 0, 1, ...), including floating-point
// summation order, but cost one dynamic dispatch per batch. All reducers
// in this package implement it; third-party reducers that only provide
// Add still work through AsBulk's element-wise fallback.
type BulkPrivate[T num.Float] interface {
	Private[T]
	// AddN accumulates a contiguous run: out[base+j] += vals[j].
	AddN(base int, vals []T)
	// Scatter accumulates a gathered batch: out[idx[j]] += vals[j].
	Scatter(idx []int32, vals []T)
}

// AsBulk returns p's bulk fast path: p itself when the strategy
// implements BulkPrivate, or an element-wise emulation otherwise. Resolve
// it once per chunk (outside the inner loop) — the type assertion is the
// devirtualization point.
func AsBulk[T num.Float](p Private[T]) BulkPrivate[T] {
	if bp, ok := p.(BulkPrivate[T]); ok {
		return bp
	}
	return bulkShim[T]{p}
}

// bulkShim is the generic element-wise fallback that keeps the bulk API
// non-breaking for third-party Private implementations.
type bulkShim[T num.Float] struct {
	Private[T]
}

func (s bulkShim[T]) AddN(base int, vals []T) {
	for j, v := range vals {
		s.Private.Add(base+j, v)
	}
}

func (s bulkShim[T]) Scatter(idx []int32, vals []T) {
	for j, i := range idx {
		s.Private.Add(int(i), vals[j])
	}
}

// MidRegionDrainer is implemented by reducers that can apply inbound
// cross-thread work cooperatively at chunk boundaries instead of
// deferring everything to Finalize (the keeper's mailbox drain, and the
// wrappers forwarding to an inner drainer). EnableMidDrain turns
// the mid-region publication machinery on or off between regions;
// DrainMid(tid) must be called on tid's own goroutine — the run harness
// wires it to the chunker's chunk-boundary hook. Both are safe no-ops
// when publication is disabled.
type MidRegionDrainer interface {
	EnableMidDrain(on bool)
	DrainMid(tid int)
}

// AddN applies a contiguous run through p, using its bulk fast path when
// available. For repeated calls prefer resolving AsBulk once.
func AddN[T num.Float](p Private[T], base int, vals []T) {
	AsBulk(p).AddN(base, vals)
}

// Scatter applies a gathered batch through p, using its bulk fast path
// when available. For repeated calls prefer resolving AsBulk once.
func Scatter[T num.Float](p Private[T], idx []int32, vals []T) {
	AsBulk(p).Scatter(idx, vals)
}

// Reducer is the strategy-independent contract every SPRAY reducer object
// fulfills. After Finalize (or FinalizeWith) returns, all contributions
// from all Privates are visible in the wrapped array.
type Reducer[T num.Float] interface {
	// Private returns the accessor for thread tid in [0, Threads()).
	// It must be called at most once per tid per region.
	Private(tid int) Private[T]
	// Finalize runs the fix-up combining step serially and resets the
	// reducer for reuse in a subsequent region.
	Finalize()
	// FinalizeWith runs the fix-up step using the team when the strategy
	// can parallelize it (dense, compensated, block, keeper), and falls
	// back to the serial Finalize otherwise.
	FinalizeWith(t *par.Team)
	// Bytes reports the strategy's current extra memory in bytes.
	Bytes() int64
	// PeakBytes reports the high-water mark of extra memory.
	PeakBytes() int64
	// Name identifies the strategy (e.g. "block-cas-1024").
	Name() string
	// Threads returns the team size the reducer was built for.
	Threads() int
}

// Instrumentable is implemented by every reducer in this package: it
// attaches a telemetry recorder whose per-thread shards the strategy's
// accessors bump from their hot paths (update counts, bulk runs, CAS
// retries, block claims/fallbacks, keeper queue traffic, entry counts).
//
// Attaching nil detaches the recorder and restores the uninstrumented
// fast path — accessors hold a per-thread shard pointer resolved in
// Private, so a detached reducer pays exactly one predictable nil-check
// branch per instrumented event. Instrument must not be called while a
// region is running.
type Instrumentable interface {
	Instrument(rec *telemetry.Recorder)
}

// validate panics on obviously bad constructor arguments; reducers are
// infrastructure and misuse should fail loudly.
func validate[T num.Float](out []T, threads int) {
	if threads < 1 {
		panic("core: reducer needs a positive thread count")
	}
	if out == nil {
		panic("core: reducer needs a non-nil target array")
	}
}

// validateIndex32 guards strategies that record update indices as int32
// (keeper queues, map/B-tree keys, ordered logs, the Scatter batch
// format): an array longer than MaxInt32 would silently truncate indices,
// so such arrays are rejected at construction.
func validateIndex32(n int) {
	if n > math.MaxInt32 {
		panic(fmt.Sprintf("core: array length %d exceeds the strategy's int32 index range (max %d)", n, math.MaxInt32))
	}
}

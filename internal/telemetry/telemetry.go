// Package telemetry is the runtime observability substrate of the SPRAY
// reproduction: per-thread, cache-line-padded counter shards that the
// reduction strategies bump from their hot paths, and recorders that
// aggregate the shards per reducer instance.
//
// Design constraints, in priority order:
//
//  1. A reducer with no recorder attached must pay at most a nil check
//     per instrumented event — instrumentation is strictly opt-in and the
//     disabled path differs from an uninstrumented build only by
//     predictable not-taken branches.
//  2. Enabled counters must not introduce false sharing between team
//     members: each thread writes its own shard, padded out to two cache
//     lines.
//  3. Snapshots must be safe to take while a region is running (a
//     mid-region Report reads concurrently): slots are atomic,
//     single-writer, many-reader.
package telemetry

import (
	"fmt"
	"strings"
	"sync/atomic"
)

// Kind enumerates the event counters a strategy can report. One shard
// carries one slot per kind; strategies bump only the kinds that exist in
// their design (a dense reducer has no keeper queues to count).
type Kind uint8

const (
	// Updates counts element-wise Add calls.
	Updates Kind = iota
	// AddNRuns counts bulk contiguous-run submissions (AddN calls).
	AddNRuns
	// ScatterRuns counts bulk gathered-batch submissions (Scatter calls).
	ScatterRuns
	// BulkElems counts elements delivered through AddN/Scatter batches.
	BulkElems
	// CASRetries counts failed compare-and-swap attempts: atomic-strategy
	// value CAS loops that had to re-read, and block-cas claim CASes that
	// lost the ownership race.
	CASRetries
	// BlockClaims counts blocks claimed in place inside the original
	// array (block-lock / block-cas modes).
	BlockClaims
	// BlockFallbacks counts full private fallback blocks materialized
	// because the block was privatized (block-private mode) or already
	// owned by another thread.
	BlockFallbacks
	// PoolReuses counts fallback blocks served from the cross-region
	// buffer pool instead of a fresh allocation.
	PoolReuses
	// KeeperOwned counts keeper updates applied directly to the thread's
	// own static ownership range.
	KeeperOwned
	// KeeperForeign counts keeper updates enqueued with a foreign owner.
	KeeperForeign
	// KeeperDrained counts queued update requests applied at finalize.
	KeeperDrained
	// Entries counts key-value entries held at Done (map/B-tree
	// strategies) or update-log records (ordered strategy).
	Entries
	// KeeperMidDrains counts mid-region mailbox drains: chunk boundaries
	// at which an owner found (and applied) inbound foreign parcels
	// before Finalize.
	KeeperMidDrains
	// Steals counts successful work-steal acquisitions under the steal
	// schedule: chunks a dry member took FIFO from a victim's deque.
	Steals
	// StealFails counts steal probes that came back empty — the victim's
	// deque was empty or the top CAS lost to a competing thief.
	StealFails
	// StealIters counts loop iterations transferred by successful steals
	// (the runtime's unit of stolen work; multiply by the element size of
	// the workload for bytes).
	StealIters
	// GrainSplits counts oversized chunks the adaptive grain controller
	// split after a steal: the far half goes back on the thief's deque
	// (stealable again), the near half executes immediately.
	GrainSplits
	// GrainCoalesces counts adjacent chunks the grain controller merged
	// on the owner's pop path while the deque's steal rate was zero —
	// each merged pair counts one.
	GrainCoalesces
	// ChunksExecuted counts loop chunks executed under the steal
	// schedule; read per thread (Recorder.PerThread) it is the chunk-level
	// load-balance picture of the region.
	ChunksExecuted

	// NumKinds is the number of counter kinds; it sizes shards and
	// snapshots.
	NumKinds
)

var kindNames = [NumKinds]string{
	Updates:         "updates",
	AddNRuns:        "addn-runs",
	ScatterRuns:     "scatter-runs",
	BulkElems:       "bulk-elems",
	CASRetries:      "cas-retries",
	BlockClaims:     "block-claims",
	BlockFallbacks:  "block-fallbacks",
	PoolReuses:      "pool-reuses",
	KeeperOwned:     "keeper-owned",
	KeeperForeign:   "keeper-foreign",
	KeeperDrained:   "keeper-drained",
	Entries:         "entries",
	KeeperMidDrains: "keeper-midregion-drains",
	Steals:          "steals",
	StealFails:      "steal-fails",
	StealIters:      "steal-iters",
	GrainSplits:     "grain-splits",
	GrainCoalesces:  "grain-coalesces",
	ChunksExecuted:  "chunks-executed",
}

// String returns the stable external name of the counter kind (used in
// tables and JSON).
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// shardPayload is the byte size of one shard's counter slots; the pad
// rounds the struct up to a multiple of 128 bytes (two cache lines, so
// adjacent-line prefetching cannot couple neighboring shards either).
const shardPayload = int(NumKinds) * 8

// Shard is one thread's private counter block. All increment methods are
// nil-safe — a nil *Shard is the "telemetry off" state and costs one
// branch — and writes are atomic so concurrent snapshot reads are
// race-free. Only the owning thread may increment.
type Shard struct {
	// The pad leads the struct: a zero-length array as the last field
	// would itself be padded (to keep past-the-end pointers out of the
	// next object), breaking the 128-byte rounding exactly when the
	// payload already is a multiple.
	_ [(-shardPayload) & 127]byte
	c [NumKinds]atomic.Uint64
}

// Inc adds one to counter k.
func (s *Shard) Inc(k Kind) {
	if s != nil {
		s.c[k].Add(1)
	}
}

// Add adds n to counter k.
func (s *Shard) Add(k Kind, n int) {
	if s != nil {
		s.c[k].Add(uint64(n))
	}
}

// IncRun records one bulk batch of n elements: one run of kind k plus n
// BulkElems, behind a single nil check.
func (s *Shard) IncRun(k Kind, n int) {
	if s != nil {
		s.c[k].Add(1)
		s.c[BulkElems].Add(uint64(n))
	}
}

// Count returns the current value of counter k (0 on a nil shard).
func (s *Shard) Count(k Kind) uint64 {
	if s == nil {
		return 0
	}
	return s.c[k].Load()
}

// snapshot copies the shard's slots.
func (s *Shard) snapshot() Snapshot {
	var out Snapshot
	for k := range s.c {
		out[k] = s.c[k].Load()
	}
	return out
}

// reset zeroes the shard.
func (s *Shard) reset() {
	for k := range s.c {
		s.c[k].Store(0)
	}
}

// Recorder aggregates the per-thread shards of one reducer instance. A
// nil *Recorder is valid everywhere and hands out nil shards — reducers
// hold a possibly-nil recorder and stay on the uninstrumented fast path
// until one is attached.
type Recorder struct {
	name   string
	shards []Shard
}

// NewRecorder creates a recorder for a reducer with the given strategy
// name and team size.
func NewRecorder(name string, threads int) *Recorder {
	if threads < 1 {
		panic(fmt.Sprintf("telemetry: recorder needs a positive thread count, got %d", threads))
	}
	return &Recorder{name: name, shards: make([]Shard, threads)}
}

// Name returns the strategy name the recorder was created for.
func (r *Recorder) Name() string {
	if r == nil {
		return ""
	}
	return r.name
}

// Threads returns the number of per-thread shards.
func (r *Recorder) Threads() int {
	if r == nil {
		return 0
	}
	return len(r.shards)
}

// Shard returns thread tid's counter shard, or nil when the recorder
// itself is nil — the single nil check strategies hoist into Private.
func (r *Recorder) Shard(tid int) *Shard {
	if r == nil {
		return nil
	}
	return &r.shards[tid]
}

// Snapshot sums all shards into one consistent-enough view (counters are
// read atomically slot by slot; a snapshot taken mid-region may split a
// logically paired update across slots, which is inherent to live reads).
func (r *Recorder) Snapshot() Snapshot {
	var out Snapshot
	if r == nil {
		return out
	}
	for t := range r.shards {
		out.Merge(r.shards[t].snapshot())
	}
	return out
}

// PerThread returns one snapshot per shard, for load-skew diagnostics.
func (r *Recorder) PerThread() []Snapshot {
	if r == nil {
		return nil
	}
	out := make([]Snapshot, len(r.shards))
	for t := range r.shards {
		out[t] = r.shards[t].snapshot()
	}
	return out
}

// Reset zeroes every shard.
func (r *Recorder) Reset() {
	if r == nil {
		return
	}
	for t := range r.shards {
		r.shards[t].reset()
	}
}

// Snapshot is a point-in-time copy of one counter set, indexed by Kind.
type Snapshot [NumKinds]uint64

// Get returns counter k.
func (s Snapshot) Get(k Kind) uint64 { return s[k] }

// Merge adds other into s slot-wise.
func (s *Snapshot) Merge(other Snapshot) {
	for k := range s {
		s[k] += other[k]
	}
}

// Total returns the sum over all slots (a cheap "anything recorded?"
// probe).
func (s Snapshot) Total() uint64 {
	var t uint64
	for _, v := range s {
		t += v
	}
	return t
}

// Map returns the nonzero counters keyed by their external names — the
// form embedded in bench points.
func (s Snapshot) Map() map[string]uint64 {
	m := make(map[string]uint64)
	for k, v := range s {
		if v != 0 {
			m[Kind(k).String()] = v
		}
	}
	return m
}

// String renders the nonzero counters as "name=value" pairs in kind
// order.
func (s Snapshot) String() string {
	var b strings.Builder
	for k, v := range s {
		if v == 0 {
			continue
		}
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%d", Kind(k), v)
	}
	if b.Len() == 0 {
		return "(no events)"
	}
	return b.String()
}

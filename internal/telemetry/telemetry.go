// Package telemetry is the runtime observability substrate of the SPRAY
// reproduction: per-thread, cache-line-padded counter shards that the
// reduction strategies bump from their hot paths, recorders that
// aggregate the shards per reducer instance, log-bucketed latency
// histograms (hist.go) and span tracing (trace.go).
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
	"time"

	"spray/internal/hotspot"
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
	// TraceDropped counts span events evicted from a full trace ring
	// buffer (oldest-first) before they could be exported.
	TraceDropped
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
	TraceDropped:    "trace-dropped",
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

// histSlot is one latency histogram inside a shard: log-bucketed counts
// plus exact count/sum/max. All slots are atomic for live snapshot reads;
// only the owning thread writes.
type histSlot struct {
	buckets [HistBuckets]atomic.Uint64
	count   atomic.Uint64
	sum     atomic.Uint64 // ns
	max     atomic.Uint64 // ns
}

// shardPayload is the byte size of one shard's counter, histogram and
// sampling slots; the pad rounds the struct up to a multiple of 128 bytes
// (two cache lines, so adjacent-line prefetching cannot couple
// neighboring shards either).
const shardPayload = int(NumKinds)*8 + int(NumHKinds)*(HistBuckets+3)*8 + int(NumHKinds)*8 + 8

// Shard is one thread's private counter block. All increment methods are
// nil-safe — a nil *Shard is the "telemetry off" state and costs one
// branch — and writes are atomic so concurrent snapshot reads are
// race-free. Only the owning thread may increment.
type Shard struct {
	c [NumKinds]atomic.Uint64
	h [NumHKinds]histSlot
	// hot is this thread's index-space contention profiler shard, nil
	// unless a Profiler is attached (AttachHotspot). It rides inside the
	// telemetry shard so strategies resolve both gates with the one
	// Shard(tid) call they already make in Private.
	hot *hotspot.Shard
	// The pad sits before the last field: a zero-length array at the end
	// of a struct would itself be padded (to keep past-the-end pointers
	// out of the next object), breaking the 128-byte rounding exactly
	// when the payload already is a multiple.
	_ [(-shardPayload) & 127]byte
	// tick is the sampling decimation state per latency kind. It is a
	// plain counter: only the owning thread touches it, and snapshots
	// never read it.
	tick [NumHKinds]uint64
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

// Hot returns the attached hotspot shard, or nil when the shard itself
// is nil or no profiler is attached. Strategies cache the result next
// to their telemetry shard in Private, so the profiler-off path is one
// predictable nil check per conflict event.
func (s *Shard) Hot() *hotspot.Shard {
	if s == nil {
		return nil
	}
	return s.hot
}

// Sample reports whether the next event of latency kind k should be
// timed: true for the first event after attach/reset and then every
// SamplePeriod-th. Nil shards never sample, so the hook disappears
// behind the same gate as the counters. Only the owning thread may call
// Sample.
func (s *Shard) Sample(k HKind) bool {
	if s == nil {
		return false
	}
	t := s.tick[k]
	s.tick[k] = t + 1
	return t%SamplePeriod == 0
}

// Observe records one latency sample into kind k's histogram. Nil-safe.
func (s *Shard) Observe(k HKind, d time.Duration) {
	if s == nil {
		return
	}
	var ns uint64
	if d > 0 {
		ns = uint64(d.Nanoseconds())
	}
	h := &s.h[k]
	h.buckets[histBucket(ns)].Add(1)
	h.count.Add(1)
	h.sum.Add(ns)
	for {
		cur := h.max.Load()
		if ns <= cur || h.max.CompareAndSwap(cur, ns) {
			return
		}
	}
}

// Hist copies latency kind k's histogram (zero on a nil shard).
func (s *Shard) Hist(k HKind) HistSnapshot {
	var out HistSnapshot
	if s == nil {
		return out
	}
	h := &s.h[k]
	for b := range h.buckets {
		out.Buckets[b] = h.buckets[b].Load()
	}
	out.Count = h.count.Load()
	out.Sum = h.sum.Load()
	out.Max = h.max.Load()
	return out
}

// snapshot copies the shard's slots.
func (s *Shard) snapshot() Snapshot {
	var out Snapshot
	for k := range s.c {
		out[k] = s.c[k].Load()
	}
	return out
}

// reset zeroes the shard, including histograms and sampling state.
func (s *Shard) reset() {
	for k := range s.c {
		s.c[k].Store(0)
	}
	for k := range s.h {
		h := &s.h[k]
		for b := range h.buckets {
			h.buckets[b].Store(0)
		}
		h.count.Store(0)
		h.sum.Store(0)
		h.max.Store(0)
		s.tick[k] = 0
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

// AttachHotspot points every shard at the matching shard of the given
// index-space contention profiler (nil detaches). Call it from the same
// setup context that attaches the recorder itself — before the team
// runs regions — so accessors resolve a settled pointer in Private.
func (r *Recorder) AttachHotspot(p *hotspot.Profiler) {
	if r == nil {
		return
	}
	for t := range r.shards {
		r.shards[t].hot = p.Shard(t)
	}
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

// Hist merges latency kind k's per-thread histogram shards into one
// snapshot — by construction identical to the histogram a single thread
// would have accumulated over the union of the samples.
func (r *Recorder) Hist(k HKind) HistSnapshot {
	var out HistSnapshot
	if r == nil {
		return out
	}
	for t := range r.shards {
		out.Merge(r.shards[t].Hist(k))
	}
	return out
}

// Hists returns all merged latency histograms, indexed by HKind.
func (r *Recorder) Hists() [NumHKinds]HistSnapshot {
	var out [NumHKinds]HistSnapshot
	if r == nil {
		return out
	}
	for k := HKind(0); k < NumHKinds; k++ {
		out[k] = r.Hist(k)
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

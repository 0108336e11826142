// Package hotspot is the index-space contention profiler: an
// always-cheap, sampling-based attribution of conflict events (CAS
// retries, block claim contention, keeper foreign submissions) to
// cache-line-granularity regions of the output array.
//
// The aggregate counters of internal/telemetry answer "how much
// contention"; this package answers "where". Each thread records into
// its own Shard — a small count-min sketch over cache-line numbers and
// an exact-ish top-K candidate table — so the hot path takes no locks
// and allocates nothing.
// Recording is decimated: only every SamplePeriod-th recording call
// pays the sketch update, and a sampled call records its full batch
// weight, which keeps the per-line expectation unbiased at total/period
// regardless of how updates are batched.
//
// Gating follows the telemetry convention exactly: a nil *Shard (or nil
// *Profiler) is the off state, every method is nil-safe, and strategies
// cache the shard pointer next to their telemetry shard so the disabled
// path costs one predictable not-taken branch.
//
// Error bounds: with depth d and width w, a count-min estimate
// overshoots a line's true sampled weight by at most S/w per row with
// probability 1/2 per row (S = total sampled weight in the shard), so
// P[err > e*S] <= (1/(e*w))^d by the usual Markov argument; at the
// defaults (d=4, w=1024) the estimate for any line is within ~0.4% of
// the shard's total weight with probability 1-2^-4 per query. The
// top-K table stores exact per-line counts for the K currently-tracked
// candidates; admission is driven by the sketch estimate, so a line
// whose true weight exceeds the current minimum tracked count by the
// sketch error is always admitted eventually.
package hotspot

import (
	"math/bits"
	"sync/atomic"
)

// Class labels the kind of conflict event being attributed to a line.
type Class uint8

const (
	// CASRetry: an atomic update had to retry its compare-and-swap;
	// weight = number of retries.
	CASRetry Class = iota
	// BlockContention: a block claim was lost to another thread or the
	// claim fell back to the spill buffer; recorded at the block base.
	BlockContention
	// KeeperForeign: an update was submitted to a foreign owner's
	// queue; weight = number of foreign elements.
	KeeperForeign

	// NumClasses is the number of conflict classes.
	NumClasses = 3
)

var classNames = [NumClasses]string{
	"cas-retry", "block-contention", "keeper-foreign",
}

// String returns the stable kebab-case name used in exports.
func (c Class) String() string {
	if int(c) < len(classNames) {
		return classNames[c]
	}
	return "unknown"
}

// Defaults for Options fields left zero.
const (
	DefaultSketchDepth  = 4
	DefaultSketchWidth  = 1024
	DefaultTopK         = 32
	DefaultSamplePeriod = 64
)

// Options configures a Profiler. The zero value selects the defaults,
// which fit each shard in ~40 KiB and keep the sampled hot path at a
// handful of multiplies.
type Options struct {
	// LineElems is the number of array elements per cache line
	// (64/sizeof(elem): 8 for float64, 16 for float32). Callers that
	// know the element type should set it; 0 defaults to 8.
	LineElems int
	// SketchDepth is the number of count-min rows (default 4).
	SketchDepth int
	// SketchWidth is the number of counters per row, rounded up to a
	// power of two (default 1024).
	SketchWidth int
	// TopK is the size of the exact hot-line candidate table per shard
	// (default 32).
	TopK int
	// SamplePeriod decimates recording calls: only every period-th call
	// per (shard, class) updates the sketch, recording its full batch
	// weight. 1 records every call exactly (default 64).
	SamplePeriod int
}

func (o *Options) fill() {
	if o.LineElems <= 0 {
		o.LineElems = 8
	}
	if o.SketchDepth <= 0 {
		o.SketchDepth = DefaultSketchDepth
	}
	if o.SketchWidth <= 0 {
		o.SketchWidth = DefaultSketchWidth
	}
	if o.SketchWidth&(o.SketchWidth-1) != 0 {
		o.SketchWidth = 1 << bits.Len(uint(o.SketchWidth))
	}
	if o.TopK <= 0 {
		o.TopK = DefaultTopK
	}
	if o.SamplePeriod <= 0 {
		o.SamplePeriod = DefaultSamplePeriod
	}
}

// seeds are odd multipliers for the per-row multiplicative hashes
// (high-bit extraction of line*seed, Knuth-style). Fixed, so profiles
// from different shards and processes are comparable.
var seeds = [8]uint64{
	0x9e3779b97f4a7c15, 0xbf58476d1ce4e5b9, 0x94d049bb133111eb, 0xd6e8feb86659fd93,
	0xa0761d6478bd642f, 0xe7037ed1a0b428db, 0x8ebc6af09c88c6e3, 0x589965cc75374cc3,
}

// Profiler owns the per-thread shards for one instrumented reducer.
// Construct with New, hand Shard(tid) to each thread (via
// telemetry.Recorder.AttachHotspot), and call Snapshot to aggregate.
type Profiler struct {
	strategy string
	n        int // output array length in elements
	threads  int
	opts     Options
	shift    uint // index >> shift = line number
	numLines int
	shards   []Shard
}

// New builds a Profiler for an output array of n elements reduced by
// the named strategy on the given team size. Options zero values select
// the defaults.
func New(strategy string, n, threads int, opts Options) *Profiler {
	opts.fill()
	if n < 1 {
		n = 1
	}
	if threads < 1 {
		threads = 1
	}
	p := &Profiler{
		strategy: strategy,
		n:        n,
		threads:  threads,
		opts:     opts,
		shift:    uint(bits.Len(uint(opts.LineElems) - 1)),
	}
	p.numLines = (n + (1 << p.shift) - 1) >> p.shift
	logW := uint(bits.Len(uint(opts.SketchWidth)) - 1)
	p.shards = make([]Shard, threads)
	for t := range p.shards {
		s := &p.shards[t]
		s.logW = logW
		s.depth = opts.SketchDepth
		s.period = uint32(opts.SamplePeriod)
		s.shift = p.shift
		s.cells = make([]atomic.Uint64, opts.SketchDepth*opts.SketchWidth)
		s.top = make([]atomic.Uint64, opts.TopK)
	}
	return p
}

// Shard returns thread tid's shard, or nil when the profiler itself is
// nil or tid is out of range — the usual nil-gated accessor.
func (p *Profiler) Shard(tid int) *Shard {
	if p == nil || tid < 0 || tid >= len(p.shards) {
		return nil
	}
	return &p.shards[tid]
}

// Strategy returns the strategy name the profiler was built for.
func (p *Profiler) Strategy() string { return p.strategy }

// Reset clears all shards (between measurement windows).
func (p *Profiler) Reset() {
	if p == nil {
		return
	}
	for t := range p.shards {
		s := &p.shards[t]
		for i := range s.cells {
			s.cells[i].Store(0)
		}
		for i := range s.top {
			s.top[i].Store(0)
		}
		for c := range s.events {
			s.events[c].Store(0)
			s.sampled[c].Store(0)
		}
		s.topMin = 0
		// tick and topMin are plain single-writer fields; Reset runs
		// between measurement windows (no concurrent recording), same as
		// the telemetry recorder's contract.
	}
}

// Shard is one thread's recording surface. All methods are nil-safe
// (nil = profiling off) and must be called only by the owning thread;
// the aggregation side reads the atomic cells concurrently.
type Shard struct {
	logW   uint
	depth  int
	period uint32
	shift  uint

	// tick is the per-class decimation counter — single-writer, plain
	// field (the owning thread is the only mutator).
	tick [NumClasses]uint32

	// events counts every recording call's weight per class (cheap: an
	// atomic load and store by the owning thread, no locked add and no
	// sketch work). sampled counts only the weight that made it into the
	// sketch, i.e. the denominator for the sketch's hot-line counts.
	events  [NumClasses]atomic.Uint64
	sampled [NumClasses]atomic.Uint64

	cells []atomic.Uint64 // depth rows x width cells, row-major
	top   []atomic.Uint64 // packed line<<32 | count candidates

	// topMin caches the smallest count currently in the top table
	// (single-writer, possibly stale-low after an update-in-place of the
	// minimum slot — stale-low only costs an extra scan, never a skip
	// that matters; see offer).
	topMin uint64

	// Trailing pad so adjacent shards in the Profiler's slice do not
	// share a cache line through their per-call event counters.
	_ [64]byte
}

// Record attributes one conflict event of class c at element index i.
func (s *Shard) Record(c Class, i int) { s.RecordW(c, i, 1) }

// RecordW attributes w conflict events of class c at element index i.
func (s *Shard) RecordW(c Class, i int, w uint64) {
	if s == nil || w == 0 {
		return
	}
	s.events[c].Store(s.events[c].Load() + w)
	if s.tickOne(c) {
		s.bump(c, uint64(i)>>s.shift, w)
	}
}

// RecordRun attributes one event per element of the contiguous run
// [base, base+n) — e.g. a keeper AddN foreign segment. The run counts
// as a single recording call for decimation; when sampled, its weight
// is spread over the lines it covers.
func (s *Shard) RecordRun(c Class, base, n int) {
	if s == nil || n <= 0 {
		return
	}
	s.events[c].Store(s.events[c].Load() + uint64(n))
	if !s.tickOne(c) {
		return
	}
	first := uint64(base) >> s.shift
	last := uint64(base+n-1) >> s.shift
	lineElems := uint64(1) << s.shift
	for ln := first; ln <= last; ln++ {
		lo := ln << s.shift
		hi := lo + lineElems
		if lo < uint64(base) {
			lo = uint64(base)
		}
		if hi > uint64(base+n) {
			hi = uint64(base + n)
		}
		s.bump(c, ln, hi-lo)
	}
}

// RecordBatch attributes one event per index in idx — e.g. a scattered
// foreign submission. One recording call for
// decimation; when sampled, every index lands in the sketch.
func (s *Shard) RecordBatch(c Class, idx []int32) {
	if s == nil || len(idx) == 0 {
		return
	}
	s.events[c].Store(s.events[c].Load() + uint64(len(idx)))
	if !s.tickOne(c) {
		return
	}
	for _, i := range idx {
		s.bump(c, uint64(uint32(i))>>s.shift, 1)
	}
}

// tickOne advances the class's decimation counter and reports whether
// this call is the sampled one.
func (s *Shard) tickOne(c Class) bool {
	t := s.tick[c] + 1
	if t >= s.period {
		s.tick[c] = 0
		return true
	}
	s.tick[c] = t
	return false
}

// bump adds weight w for line ln: count-min rows and the top-K
// candidate table.
func (s *Shard) bump(c Class, ln, w uint64) {
	s.sampled[c].Add(w)
	width := uint64(1) << s.logW
	est := ^uint64(0)
	for r := 0; r < s.depth; r++ {
		h := (ln * seeds[r]) >> (64 - s.logW)
		v := s.cells[uint64(r)*width+h].Add(w)
		if v < est {
			est = v
		}
	}
	s.offer(ln, est)
}

// offer maintains the top-K candidate table: packed entries hold
// line<<32 | count, where count is the sketch estimate at the line's
// last update (saturated to 32 bits). Single-writer, so a plain
// read-modify-Store per slot is tear-free for concurrent readers.
func (s *Shard) offer(ln, est uint64) {
	if est > 0xffffffff {
		est = 0xffffffff
	}
	// Fast path on the cached table minimum. A line's sketch estimate
	// only grows, so est <= topMin implies: if the line is tracked, its
	// stored count already equals est (no update needed); if it is not,
	// est > minCount can't hold (no admission). The skip is exact — the
	// slot scan below is paid only by estimates that can change the
	// table.
	if est <= s.topMin {
		return
	}
	minSlot, minCount, second := -1, ^uint64(0), ^uint64(0)
	for k := range s.top {
		e := s.top[k].Load()
		if e>>32 == ln {
			// topMin may now be stale-low (if this was the min slot);
			// that only re-enables scans, never skips a real update.
			s.top[k].Store(ln<<32 | est)
			return
		}
		cnt := e & 0xffffffff
		if cnt < minCount {
			minCount, second, minSlot = cnt, minCount, k
		} else if cnt < second {
			second = cnt
		}
	}
	if est > minCount {
		s.top[minSlot].Store(ln<<32 | est)
		if est < second {
			s.topMin = est
		} else {
			s.topMin = second
		}
	}
}

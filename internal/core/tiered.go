package core

import (
	"math"
	"time"
	"unsafe"

	"spray/internal/hotspot"
	"spray/internal/memtrack"
	"spray/internal/num"
	"spray/internal/par"
	"spray/internal/telemetry"
)

// Tiered splits the index space by temperature: each thread owns a small
// direct-mapped replica cache of the cache lines it collides on most
// (accumulate-in-place, no synchronization, cache-line granularity), and
// every other update falls through to the inner strategy — atomics by
// default. It is the hot/cold middle ground the uniform strategies
// bracket from either side: dense replication pays O(n) per thread to
// make every line private, atomics pay CAS latency exactly on the few
// lines where threads actually collide; the tiered reducer privatizes
// only the contended hot set (a fixed, array-size-independent footprint)
// and lets the sparse cold tail keep the inner strategy's semantics.
//
// The hot set is fed two ways:
//
//   - Profile-guided: SeedHotLines installs a fixed promotion set (the
//     top-K lines of a previous region's hotspot.Profile) into every
//     thread's cache at the start of each region.
//   - Online: every thread records its cold misses into a private
//     count-min/top-K shard (the same machinery as internal/hotspot) and
//     promotes the top candidates at rebalance points — chunk boundaries
//     via the MidRegionDrainer hook, plus a cold-miss-count trigger so
//     single-chunk (Static) schedules still adapt mid-region.
//
// Correctness never depends on the cache contents: a promotion that
// displaces an incumbent line flushes the incumbent's accumulated
// partial through the inner strategy first (the eviction path), and
// Finalize merges the surviving partials into the output with a
// team-parallel, line-partitioned pass. Only elements actually touched
// by updates are flushed or merged (a per-slot bitmask tracks them), so
// untouched elements are never perturbed — not even by adding a zero.
//
// Tiered relaxes one letter of the BulkPrivate
// contract: a batch is routed by temperature, so cold elements of a
// Scatter batch reach the inner strategy slightly later than interleaved
// hot elements (staged in arrival order), and a line's hot partial is
// applied to the output as one merged contribution at eviction or
// finalize rather than update by update. Same-index updates of equal
// temperature keep their arrival order, sums stay exact for
// integer-valued data, and for a fixed promotion schedule (seeding with
// online rebalancing disabled) the bulk paths remain bitwise equivalent
// to the element-wise path.
type Tiered[T num.Float] struct {
	inner     Reducer[T]
	out       []T
	threads   int
	slots     int // per-thread direct-mapped cache slots (power of two)
	lineElems int // elements per cached line (power of two, <= 16)
	shift     uint
	emask     int    // lineElems - 1
	slotMask  uint32 // slots - 1
	numLines  int
	online    bool
	rebalance int // cold misses per thread between forced rebalances
	promote   uint64
	privs     []tieredPrivate[T]
	track     *hotspot.Profiler // online promotion signal (always on, internal)
	seed      []int32           // profile-guided promotion set (line numbers)
	drainer   MidRegionDrainer
	midDrain  bool
	mem       memtrack.Counter
	tel       *telemetry.Recorder
}

// TieredConfig tunes the replica cache; the zero value selects the
// defaults.
type TieredConfig struct {
	// Slots is the per-thread cache capacity in lines, rounded up to a
	// power of two (default 128 — 8 KiB of float32 payload per thread).
	Slots int
	// LineElems is the number of array elements per cached line, a power
	// of two at most 16 (the touched-bitmask width). Defaults to one
	// hardware cache line: 64/sizeof(T).
	LineElems int
	// RebalanceEvery is the number of cold misses a thread absorbs
	// before forcing an online rebalance outside chunk boundaries
	// (default 4096). Negative disables online promotion entirely —
	// the cache then holds exactly the seeded lines, which makes the
	// promotion schedule deterministic for tests.
	RebalanceEvery int
	// PromoteMin is the minimum sampled conflict weight before a line is
	// promotion-eligible (default 32) — keeps one-off misses out of the
	// cache.
	PromoteMin uint64
}

// Default tiered parameters; see TieredConfig.
const (
	DefaultTieredSlots    = 128
	defaultRebalanceEvery = 4096
	defaultPromoteMin     = 32
	// tieredColdSample decimates the element-wise cold path's recording
	// into the online tracker: one cold Add per tieredColdSample records,
	// on average, with full weight, keeping the expectation unbiased
	// (bulk paths record per batch instead, which is already cheap). The
	// gap between samples is drawn uniformly from [1, 2*tieredColdSample)
	// by a per-thread xorshift rather than counted deterministically: a
	// fixed every-Nth stride phase-locks against periodic update
	// patterns (e.g. a body alternating hot and uniform indices never
	// gets its hot index sampled when the stride is even), which starves
	// the tracker of exactly the lines promotion exists to find.
	tieredColdSample = 8
	// tieredTrackPeriod is the online tracker's own per-call decimation;
	// stacked with tieredColdSample the element-wise sketch work runs
	// 1-in-64.
	tieredTrackPeriod = 8
	// tieredColdBatch sizes the per-thread staging buffer that carries a
	// Scatter batch's cold remainder to the inner strategy.
	tieredColdBatch = 256
	// tieredMaxLineElems is the touched-bitmask width.
	tieredMaxLineElems = 16
)

type tieredPrivate[T num.Float] struct {
	parent *Tiered[T]
	inner  BulkPrivate[T]

	// Geometry copied from the parent so the hot path dereferences one
	// pointer (the accessor) instead of two.
	shift     uint
	emask     int
	lineElems int
	slotMask  uint32

	tags  []int32  // per slot: cached line number, -1 empty
	masks []uint16 // per slot: bitmask of touched elements
	buf   []T      // slots x lineElems accumulation storage

	trk       *hotspot.Shard // own online tracker shard (always attached)
	coldTick  uint32         // cold Adds left until the next tracker sample
	coldRng   uint64         // xorshift state for randomized sample gaps
	coldSince int            // cold misses since the last rebalance
	rebalance int
	promote   uint64

	cand []hotspot.LineCount // rebalance scratch (tracker top-K)
	fidx []int32             // eviction-flush scratch, cap lineElems
	fval []T
	cidx []int32 // cold-remainder staging for Scatter
	cval []T
	nc   int // staged entries in cidx/cval
	// hotHits batches the hot-hit counter in a plain field and flushes to
	// the telemetry shard at Done: the hot path is a handful of ns, so
	// even a nil-gated shard call per element would be measurable there
	// (the <2% overhead budget). Mid-region monitors see hot hits at
	// region ends, not live — an accepted trade for a free hot path.
	hotHits int
	tel     *telemetry.Shard
	hot     *hotspot.Shard // exported profiler shard (nil-gated mirror)
	tid     int
	_       [64]byte // pad: adjacent privs must not share tag/mask lines
}

// NewTiered wraps inner, which must reduce into out, with per-thread
// hot-set replica caches. The inner reducer sees only the cold tail (and
// eviction flushes); it must reduce into the same out.
func NewTiered[T num.Float](inner Reducer[T], out []T, cfg TieredConfig) *Tiered[T] {
	validate(out, inner.Threads())
	validateIndex32(len(out))
	var zero T
	le := cfg.LineElems
	if le <= 0 {
		le = 64 / int(unsafe.Sizeof(zero))
	}
	if le > tieredMaxLineElems {
		le = tieredMaxLineElems
	}
	if le&(le-1) != 0 {
		panic("core: tiered LineElems must be a power of two")
	}
	shift := uint(0)
	for 1<<shift < le {
		shift++
	}
	numLines := (len(out) + le - 1) >> shift
	if numLines < 1 {
		numLines = 1
	}
	slots := 1
	if cfg.Slots <= 0 {
		slots = DefaultTieredSlots
	} else {
		for slots < cfg.Slots {
			slots <<= 1
		}
	}
	// Never hold more slots than lines: round the line count up to a
	// power of two and cap there.
	capSlots := 1
	for capSlots < numLines {
		capSlots <<= 1
	}
	if slots > capSlots {
		slots = capSlots
	}
	reb := cfg.RebalanceEvery
	online := reb >= 0
	if reb == 0 {
		reb = defaultRebalanceEvery
	}
	if !online {
		reb = math.MaxInt
	}
	pm := cfg.PromoteMin
	if pm == 0 {
		pm = defaultPromoteMin
	}
	tr := &Tiered[T]{
		inner:     inner,
		out:       out,
		threads:   inner.Threads(),
		slots:     slots,
		lineElems: le,
		shift:     shift,
		emask:     le - 1,
		slotMask:  uint32(slots - 1),
		numLines:  numLines,
		online:    online,
		rebalance: reb,
		promote:   pm,
		privs:     make([]tieredPrivate[T], inner.Threads()),
	}
	tr.track = hotspot.New("hot+"+inner.Name(), len(out), tr.threads, hotspot.Options{
		LineElems:    le,
		SamplePeriod: tieredTrackPeriod,
	})
	// The tracker's shards are the strategy's working state, not opt-in
	// instrumentation; charge their footprint like any other reducer
	// storage.
	tr.mem.Alloc(int64(tr.threads) *
		int64((hotspot.DefaultSketchDepth*hotspot.DefaultSketchWidth+
			hotspot.DefaultTopK+hotspot.DefaultHeatBuckets)*8))
	tr.drainer, _ = inner.(MidRegionDrainer)
	return tr
}

// SeedHotLines installs a profile-guided promotion set: the given cache
// lines (hottest first, e.g. hotspot.Profile.PromotionSet) are promoted
// into every thread's replica cache at the start of each subsequent
// region, before any updates arrive. Out-of-range lines are dropped;
// lines that collide on a cache slot resolve hottest-first. Call between
// regions only. A nil or empty set clears the seeding.
func (tr *Tiered[T]) SeedHotLines(lines []int) {
	tr.seed = tr.seed[:0]
	for _, ln := range lines {
		if ln >= 0 && ln < tr.numLines {
			tr.seed = append(tr.seed, int32(ln))
		}
	}
}

// LineElems reports the cache-line granularity of the hot set in array
// elements — the unit SeedHotLines line numbers are expressed in.
func (tr *Tiered[T]) LineElems() int { return tr.lineElems }

// Slots reports the per-thread replica-cache capacity in lines.
func (tr *Tiered[T]) Slots() int { return tr.slots }

// Private returns the tiered accessor for tid. The replica cache and its
// scratch buffers persist across regions (capacity-retention rule); the
// inner accessor and telemetry shard refresh, and the profile-guided
// seed set, when present, is (re-)installed.
func (tr *Tiered[T]) Private(tid int) Private[T] {
	p := &tr.privs[tid]
	p.inner = AsBulk(tr.inner.Private(tid))
	p.tel = tr.tel.Shard(tid)
	p.hot = p.tel.Hot()
	if p.tags == nil {
		var zero T
		p.parent = tr
		p.tid = tid
		p.shift = tr.shift
		p.emask = tr.emask
		p.lineElems = tr.lineElems
		p.slotMask = tr.slotMask
		p.rebalance = tr.rebalance
		p.promote = tr.promote
		p.tags = make([]int32, tr.slots)
		for s := range p.tags {
			p.tags[s] = -1
		}
		p.masks = make([]uint16, tr.slots)
		p.buf = make([]T, tr.slots*tr.lineElems)
		p.cand = make([]hotspot.LineCount, hotspot.DefaultTopK)
		// Non-zero per-thread seed; threads de-correlate so their sample
		// points don't line up even on identical streams.
		p.coldRng = uint64(tid)*0x9E3779B97F4A7C15 + 0x2545F4914F6CDD1D
		p.coldTick = p.nextSampleGap()
		p.fidx = make([]int32, tr.lineElems)
		p.fval = make([]T, tr.lineElems)
		p.cidx = make([]int32, tieredColdBatch)
		p.cval = make([]T, tieredColdBatch)
		tr.mem.Alloc(int64(tr.slots)*(4+2) +
			memtrack.SliceBytes(len(p.buf), unsafe.Sizeof(zero)) +
			memtrack.SliceBytes(len(p.fval)+len(p.cval), unsafe.Sizeof(zero)) +
			int64(len(p.fidx)+len(p.cidx))*4 +
			int64(len(p.cand))*16)
		p.trk = tr.track.Shard(tid)
	}
	// Profile-guided seeding: install coldest-first so a slot collision
	// inside the seed set resolves in favor of the hotter (earlier)
	// line. At region start the cache carries no partials (Finalize
	// merged and cleared them), so installs are tag writes, not flushes.
	for k := len(tr.seed) - 1; k >= 0; k-- {
		p.install(tr.seed[k])
	}
	return p
}

// install promotes line ln into its cache slot, flushing a displaced
// incumbent's partial through the inner strategy. No heat comparison —
// callers decide the policy.
func (p *tieredPrivate[T]) install(ln int32) {
	s := uint32(ln) & p.slotMask
	if p.tags[s] == ln {
		return
	}
	if p.tags[s] >= 0 {
		p.evict(s)
	}
	p.tags[s] = ln
	p.tel.Inc(telemetry.TieredPromotions)
}

// evict clears slot s, flushing its accumulated partial (touched
// elements only) through the inner strategy so no contribution is lost.
func (p *tieredPrivate[T]) evict(s uint32) {
	m := p.masks[s]
	if m == 0 {
		p.tags[s] = -1
		return
	}
	base := int(p.tags[s]) << p.shift
	b := int(s) * p.lineElems
	k := 0
	for off := 0; m != 0; off++ {
		if m&1 != 0 {
			p.fidx[k] = int32(base + off)
			p.fval[k] = p.buf[b+off]
			p.buf[b+off] = 0
			k++
		}
		m >>= 1
	}
	p.masks[s] = 0
	p.tags[s] = -1
	p.tel.Inc(telemetry.TieredEvictions)
	if p.tel.Sample(telemetry.EvictFlush) {
		start := time.Now()
		p.inner.Scatter(p.fidx[:k], p.fval[:k])
		p.tel.Observe(telemetry.EvictFlush, time.Since(start))
		return
	}
	p.inner.Scatter(p.fidx[:k], p.fval[:k])
}

// Add routes one update by temperature: a hot line accumulates in place
// (a tag compare, an add and a bitmask or — no synchronization), a cold
// one falls through to the inner strategy.
func (p *tieredPrivate[T]) Add(i int, v T) {
	ln := int32(uint32(i) >> p.shift)
	s := uint32(ln) & p.slotMask
	if p.tags[s] == ln {
		p.hotHits++
		off := i & p.emask
		p.buf[int(s)*p.lineElems+off] += v
		p.masks[s] |= 1 << uint(off)
		return
	}
	p.coldAdd(i, v)
}

// coldAdd is the fall-through path, kept out of Add so the hot path
// inlines.
func (p *tieredPrivate[T]) coldAdd(i int, v T) {
	p.tel.Inc(telemetry.TieredColdMisses)
	p.inner.Add(i, v)
	p.coldSince++
	if p.coldTick > 0 {
		p.coldTick--
		return
	}
	p.coldTick = p.nextSampleGap()
	p.trk.RecordW(hotspot.TieredCold, i, tieredColdSample)
	p.hot.RecordW(hotspot.TieredCold, i, tieredColdSample)
	if p.coldSince >= p.rebalance {
		p.rebalanceNow()
	}
}

// nextSampleGap draws the number of cold Adds to skip before the next
// tracker sample: uniform on [0, 2*tieredColdSample-1), so the
// inter-sample interval is uniform on [1, 2*tieredColdSample) with mean
// tieredColdSample — the documented sampling rate, free of phase lock
// with periodic bodies (see the tieredColdSample comment).
func (p *tieredPrivate[T]) nextSampleGap() uint32 {
	p.coldRng ^= p.coldRng << 13
	p.coldRng ^= p.coldRng >> 7
	p.coldRng ^= p.coldRng << 17
	return uint32(p.coldRng % (2*tieredColdSample - 1))
}

// AddN splits a contiguous run at line granularity: hot lines accumulate
// through the shared addInto kernel, maximal cold sub-runs forward to
// the inner strategy in one AddN each.
func (p *tieredPrivate[T]) AddN(base int, vals []T) {
	for len(vals) > 0 {
		ln := int32(uint32(base) >> p.shift)
		s := uint32(ln) & p.slotMask
		n := p.lineElems - (base & p.emask)
		if n > len(vals) {
			n = len(vals)
		}
		if p.tags[s] == ln {
			off := base & p.emask
			b := int(s)*p.lineElems + off
			addInto(p.buf[b:b+n], vals[:n])
			p.masks[s] |= uint16((uint32(1)<<uint(n) - 1) << uint(off))
			p.hotHits += n
			base += n
			vals = vals[n:]
			continue
		}
		// Coalesce the cold run across consecutive cold lines so the
		// inner strategy sees one bulk call, not one per line.
		m := n
		for m < len(vals) {
			ln2 := int32(uint32(base+m) >> p.shift)
			if p.tags[uint32(ln2)&p.slotMask] == ln2 {
				break
			}
			r := p.lineElems
			if m+r > len(vals) {
				r = len(vals) - m
			}
			m += r
		}
		p.coldRun(base, vals[:m])
		base += m
		vals = vals[m:]
	}
}

func (p *tieredPrivate[T]) coldRun(base int, vals []T) {
	p.tel.Add(telemetry.TieredColdMisses, len(vals))
	p.inner.AddN(base, vals)
	p.coldSince += len(vals)
	p.trk.RecordRun(hotspot.TieredCold, base, len(vals))
	p.hot.RecordRun(hotspot.TieredCold, base, len(vals))
	if p.coldSince >= p.rebalance {
		p.rebalanceNow()
	}
}

// Scatter routes each element by temperature: hot elements accumulate in
// place immediately, cold elements are staged in arrival order and
// flushed to the inner strategy in batches. The staging state lives in
// the accessor, not in loop locals, so the hot loop carries nothing
// across the cold path's flush call.
func (p *tieredPrivate[T]) Scatter(idx []int32, vals []T) {
	p.hotHits += len(idx) // stageCold takes the cold elements back out
	for j, i := range idx {
		ln := int32(uint32(i) >> p.shift)
		s := uint32(ln) & p.slotMask
		if p.tags[s] == ln {
			off := int(i) & p.emask
			p.buf[int(s)*p.lineElems+off] += vals[j]
			p.masks[s] |= 1 << uint(off)
			continue
		}
		p.stageCold(i, vals[j])
	}
	if p.nc > 0 {
		p.flushCold(p.cidx[:p.nc], p.cval[:p.nc])
		p.nc = 0
	}
}

// stageCold appends one cold element to the staging buffer, flushing the
// buffer to the inner strategy when it fills.
func (p *tieredPrivate[T]) stageCold(i int32, v T) {
	p.hotHits--
	p.cidx[p.nc] = i
	p.cval[p.nc] = v
	p.nc++
	if p.nc == len(p.cidx) {
		p.flushCold(p.cidx, p.cval)
		p.nc = 0
	}
}

// flushCold hands a staged cold batch to the inner strategy's Scatter
// and feeds the online tracker.
func (p *tieredPrivate[T]) flushCold(idx []int32, vals []T) {
	p.tel.Add(telemetry.TieredColdMisses, len(idx))
	p.inner.Scatter(idx, vals)
	p.coldSince += len(idx)
	p.trk.RecordBatch(hotspot.TieredCold, idx)
	p.hot.RecordBatch(hotspot.TieredCold, idx)
	if p.coldSince >= p.rebalance {
		p.rebalanceNow()
	}
}

// rebalanceNow promotes the online tracker's current top candidates:
// a candidate line above the promotion floor displaces an empty slot
// outright and a colder incumbent only with 2x hysteresis (the tracker's
// count-min estimate of the incumbent's heat), so borderline lines do
// not thrash. Displaced partials flush through the inner strategy.
func (p *tieredPrivate[T]) rebalanceNow() {
	p.coldSince = 0
	k := p.trk.TopCandidates(p.cand)
	for _, c := range p.cand[:k] {
		if c.Count < p.promote {
			break // sorted hottest-first
		}
		ln := int32(c.Line)
		s := uint32(ln) & p.slotMask
		cur := p.tags[s]
		if cur == ln {
			continue
		}
		if cur >= 0 {
			if c.Count < 2*p.trk.Estimate(int(cur)) {
				continue
			}
			p.evict(s)
		}
		p.tags[s] = ln
		p.tel.Inc(telemetry.TieredPromotions)
	}
}

// Done flushes the batched hot-hit count to the telemetry shard and
// forwards to the inner accessor. Cache partials stay put — the region
// contract makes them visible at Finalize, and keeping them warm across
// regions is the point of the cache.
func (p *tieredPrivate[T]) Done() {
	if p.hotHits > 0 {
		p.tel.Add(telemetry.TieredHotHits, p.hotHits)
		p.hotHits = 0
	}
	p.inner.Done()
}

// EnableMidDrain arms chunk-boundary rebalancing and forwards to the
// inner reducer's drain machinery when it has one.
func (tr *Tiered[T]) EnableMidDrain(on bool) {
	tr.midDrain = on
	if tr.drainer != nil {
		tr.drainer.EnableMidDrain(on)
	}
}

// DrainMid runs tid's online rebalance at a chunk boundary (the natural,
// cheap promotion point) and then forwards to the inner drainer. Must
// run on tid's goroutine, like every accessor method.
func (tr *Tiered[T]) DrainMid(tid int) {
	if !tr.midDrain {
		return
	}
	if tr.online {
		if p := &tr.privs[tid]; p.tags != nil && p.coldSince >= tieredColdSample {
			p.rebalanceNow()
		}
	}
	if tr.drainer != nil {
		tr.drainer.DrainMid(tid)
	}
}

// mergeRange folds every thread's cached partials for lines in
// [from, to) into the output and clears them. Threads are visited in
// ascending order, so the per-line combine order is deterministic
// regardless of how the line range is partitioned.
func (tr *Tiered[T]) mergeRange(from, to int) {
	for t := range tr.privs {
		p := &tr.privs[t]
		if p.tags == nil {
			continue
		}
		for s, ln := range p.tags {
			if int(ln) < from || int(ln) >= to || p.masks[s] == 0 {
				continue
			}
			lo := int(ln) << tr.shift
			hi := lo + tr.lineElems
			if hi > len(tr.out) {
				hi = len(tr.out)
			}
			b := s * tr.lineElems
			addMaskedLine(tr.out[lo:hi], p.buf[b:b+tr.lineElems], p.masks[s])
			clear(p.buf[b : b+tr.lineElems])
			p.masks[s] = 0
		}
	}
}

// Finalize merges every thread's cached partials into the output
// serially, then finalizes the inner strategy. Tags survive (the cache
// stays warm for the next region); partials do not.
func (tr *Tiered[T]) Finalize() {
	tr.mergeRange(0, tr.numLines)
	tr.inner.Finalize()
}

// FinalizeWith merges the replica caches with the team — the line space
// is statically partitioned, each member folds all threads' partials for
// its lines (same shape as the dense/compensated merges) — and then runs
// the inner strategy's parallel finalize.
func (tr *Tiered[T]) FinalizeWith(t *par.Team) {
	t.Run(func(tid int) {
		from, to := par.StaticRange(0, tr.numLines, tid, t.Size())
		tr.mergeRange(from, to)
	})
	tr.inner.FinalizeWith(t)
}

// Instrument attaches (nil: detaches) the recorder to the wrapper and
// the inner reducer, so the region report shows the temperature split
// (tiered-hot-hits, tiered-cold-misses, promotions, evictions, eviction
// flush latency) next to the inner strategy's own counters. The online
// promotion tracker is unaffected — it is strategy state, not
// instrumentation.
func (tr *Tiered[T]) Instrument(rec *telemetry.Recorder) {
	tr.tel = rec
	if in, ok := tr.inner.(Instrumentable); ok {
		in.Instrument(rec)
	}
}

// Bytes reports the inner strategy's memory plus the replica caches,
// their scratch buffers and the online tracker shards.
func (tr *Tiered[T]) Bytes() int64     { return tr.inner.Bytes() + tr.mem.Bytes() }
func (tr *Tiered[T]) PeakBytes() int64 { return tr.inner.PeakBytes() + tr.mem.Peak() }
func (tr *Tiered[T]) Name() string     { return "hot+" + tr.inner.Name() }
func (tr *Tiered[T]) Threads() int     { return tr.threads }

// Inner exposes the wrapped reducer (observability for tests, the
// experiment harness and the root-level seeding helpers).
func (tr *Tiered[T]) Inner() Reducer[T] { return tr.inner }

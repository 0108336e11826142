package plan

import (
	"fmt"
	"math"
	"slices"
	"sync/atomic"
	"time"
	"unsafe"

	"spray/internal/core"
	"spray/internal/hotspot"
	"spray/internal/memtrack"
	"spray/internal/num"
	"spray/internal/par"
	"spray/internal/telemetry"
)

// rmode is the wrapper's lifecycle state; transitions happen only at
// finalize, between regions.
type rmode uint8

const (
	modeRecord rmode = iota
	modeExecute
	modePassthrough
)

func (m rmode) String() string {
	switch m {
	case modeRecord:
		return "record"
	case modeExecute:
		return "execute"
	default:
		return "passthrough"
	}
}

// DefaultMaxInvalidations is how many consecutive executor regions may
// deviate from their freshly recorded pattern before the wrapper stops
// re-recording and degrades to a permanent passthrough.
const DefaultMaxInvalidations = 4

// Config tunes the plan-compiled wrapper.
type Config struct {
	// Kahan selects the compensated executor: owned applies and the
	// exchange merge run Kahan updates against a full-length compensation
	// array, preserving the inner compensated strategy's accuracy
	// characteristics in execute mode.
	Kahan bool
	// MaxInvalidations overrides DefaultMaxInvalidations (<= 0 keeps the
	// default).
	MaxInvalidations int
}

// Planned wraps any reducer with the record→compile→execute lifecycle
// described in the package comment. In record and passthrough modes every
// call forwards to the inner strategy; in execute mode the inner strategy
// is bypassed and regions run race-free against the compiled plan.
type Planned[T num.Float] struct {
	inner    core.Reducer[T]
	out      []T
	threads  int
	kahan    bool
	maxInval int

	mode  rmode
	tapes []tape
	prog  *program
	comp  []T // Kahan compensation, len(out), execute mode only

	recPrivs  []recPrivate[T]
	execPrivs []execPrivate[T]
	active    []bool // Private(tid) called this region

	// invalid is set by any executor accessor that deviates from its
	// tape; finalize reads it once per region.
	invalid atomic.Bool
	consec  int // consecutive invalidated regions

	hits, misses, invals, compiles int

	drainer  core.MidRegionDrainer
	midDrain bool

	mem     memtrack.Counter
	memHeld int64
	tel     *telemetry.Recorder
}

// NewPlanned wraps inner, which must reduce into out. The wrapper starts
// in record mode; the first finalize compiles the plan and subsequent
// regions execute it until the pattern deviates.
func NewPlanned[T num.Float](inner core.Reducer[T], out []T, cfg Config) *Planned[T] {
	if out == nil {
		panic("plan: planned reducer needs a non-nil target array")
	}
	if len(out) > math.MaxInt32 {
		panic(fmt.Sprintf("plan: array length %d exceeds the plan's int32 index range", len(out)))
	}
	threads := inner.Threads()
	r := &Planned[T]{
		inner:     inner,
		out:       out,
		threads:   threads,
		kahan:     cfg.Kahan,
		maxInval:  cfg.MaxInvalidations,
		tapes:     make([]tape, threads),
		recPrivs:  make([]recPrivate[T], threads),
		execPrivs: make([]execPrivate[T], threads),
		active:    make([]bool, threads),
	}
	if r.maxInval <= 0 {
		r.maxInval = DefaultMaxInvalidations
	}
	r.drainer, _ = inner.(core.MidRegionDrainer)
	return r
}

// recPrivate is the record-mode accessor: forward to the inner strategy,
// append to the tape. The inner accessor keeps its own telemetry, so the
// recorder adds no counters of its own.
type recPrivate[T num.Float] struct {
	inner core.BulkPrivate[T]
	tp    *tape
}

func (p *recPrivate[T]) Add(i int, v T) {
	p.tp.recAdd(i)
	p.inner.Add(i, v)
}

func (p *recPrivate[T]) AddN(base int, vals []T) {
	p.tp.recAddN(base, len(vals))
	p.inner.AddN(base, vals)
}

func (p *recPrivate[T]) Scatter(idx []int32, vals []T) {
	p.tp.recScatter(idx)
	p.inner.Scatter(idx, vals)
}

func (p *recPrivate[T]) Done() { p.inner.Done() }

// execPrivate is the execute-mode accessor: verify each op against the
// tape, apply owned elements in place, buffer foreign values. After a
// deviation it captures the remainder of the stream in an overflow tape
// for the finalize replay.
type execPrivate[T num.Float] struct {
	tp      *tape
	own     []T // out[lo:hi]
	comp    []T // compensation for [lo, hi), Kahan mode only
	ex      []T // exchange buffer, len == len(prog.fgn[tid])
	lo      int
	cur     int // next exchange slot
	opPos   int // next op to verify
	seqOff  int // progress inside the current opSeq op
	failed  bool
	kahan   bool
	epoch   int64 // plan epoch handed to the worker (prog.epoch)
	invalid *atomic.Bool
	ovIdx   []int32 // overflow capture after deviation
	ovVals  []T
	tel     *telemetry.Shard
}

func (p *execPrivate[T]) Add(i int, v T) {
	p.tel.Inc(telemetry.Updates)
	if !p.failed && p.opPos < len(p.tp.ops) {
		o := &p.tp.ops[p.opPos]
		if o.kind == opSeq && p.tp.idx[o.off+int64(p.seqOff)] == int32(i) {
			if p.seqOff++; p.seqOff == int(o.n) {
				p.opPos++
				p.seqOff = 0
			}
			p.apply1(int32(i), v)
			return
		}
	}
	p.deviate()
	p.ovIdx = append(p.ovIdx, int32(i))
	p.ovVals = append(p.ovVals, v)
}

func (p *execPrivate[T]) apply1(i int32, v T) {
	if k := int(i) - p.lo; uint(k) < uint(len(p.own)) {
		if p.kahan {
			y := v - p.comp[k]
			t := p.own[k] + y
			p.comp[k] = (t - p.own[k]) - y
			p.own[k] = t
		} else {
			p.own[k] += v
		}
	} else {
		p.ex[p.cur] = v
		p.cur++
	}
}

func (p *execPrivate[T]) AddN(base int, vals []T) {
	p.tel.IncRun(telemetry.AddNRuns, len(vals))
	if len(vals) == 0 {
		return
	}
	if !p.failed && p.opPos < len(p.tp.ops) && p.seqOff == 0 {
		o := &p.tp.ops[p.opPos]
		if o.kind == opAddN && int(o.base) == base && int(o.n) == len(vals) {
			p.opPos++
			p.applyRun(base, vals)
			return
		}
	}
	p.deviate()
	for j, v := range vals {
		p.ovIdx = append(p.ovIdx, int32(base+j))
		p.ovVals = append(p.ovVals, v)
	}
}

// applyRun splits a verified contiguous run against the ownership
// interval: foreign head, owned middle, foreign tail — three contiguous
// loops, no per-element tests.
func (p *execPrivate[T]) applyRun(base int, vals []T) {
	lo := p.lo
	hi := lo + len(p.own)
	end := base + len(vals)
	if hs := min(end, lo); hs > base {
		p.cur += copy(p.ex[p.cur:], vals[:hs-base])
	}
	if ms, me := max(base, lo), min(end, hi); me > ms {
		if p.kahan {
			kahanSlices(p.own[ms-lo:me-lo], p.comp[ms-lo:me-lo], vals[ms-base:me-base])
		} else {
			addSlices(p.own[ms-lo:me-lo], vals[ms-base:me-base])
		}
	}
	if ts := max(base, hi); ts < end {
		p.cur += copy(p.ex[p.cur:], vals[ts-base:])
	}
}

func (p *execPrivate[T]) Scatter(idx []int32, vals []T) {
	p.tel.IncRun(telemetry.ScatterRuns, len(idx))
	if len(idx) == 0 {
		return
	}
	if !p.failed && p.opPos < len(p.tp.ops) && p.seqOff == 0 {
		o := &p.tp.ops[p.opPos]
		if o.kind == opScatter && int(o.n) == len(idx) &&
			slices.Equal(idx, p.tp.idx[o.off:o.off+int64(o.n)]) {
			p.opPos++
			if p.kahan {
				p.cur = scatterOwnedKahan(p.own, p.comp, p.lo, idx, vals, p.ex, p.cur)
			} else {
				p.cur = scatterOwned(p.own, p.lo, idx, vals, p.ex, p.cur)
			}
			return
		}
	}
	p.deviate()
	p.ovIdx = append(p.ovIdx, idx...)
	p.ovVals = append(p.ovVals, vals...)
}

// Done flags a short stream (fewer ops than recorded) as a deviation;
// the plan's exchange slots for the missing ops were never filled.
func (p *execPrivate[T]) Done() {
	if !p.failed && (p.opPos != len(p.tp.ops) || p.seqOff != 0) {
		p.deviate()
	}
}

func (p *execPrivate[T]) deviate() {
	if p.failed {
		return
	}
	p.failed = true
	p.invalid.Store(true)
}

// Private returns the accessor matching the current mode. In execute
// mode the inner strategy's Private is not called at all — a planned
// dense reducer allocates no private copies while the plan holds.
func (r *Planned[T]) Private(tid int) core.Private[T] {
	r.active[tid] = true
	switch r.mode {
	case modeRecord:
		p := &r.recPrivs[tid]
		p.inner = core.AsBulk(r.inner.Private(tid))
		p.tp = &r.tapes[tid]
		return p
	case modeExecute:
		p := &r.execPrivs[tid]
		lo, hi := r.prog.ownRange(tid)
		p.tp = &r.tapes[tid]
		p.own = r.out[lo:hi:hi]
		p.lo = lo
		p.kahan = r.kahan
		p.epoch = r.prog.epoch
		p.invalid = &r.invalid
		if need := len(r.prog.fgn[tid]); cap(p.ex) < need {
			p.ex = make([]T, need)
		} else {
			p.ex = p.ex[:need]
		}
		if r.kahan {
			p.comp = r.comp[lo:hi:hi]
			clear(p.comp)
		}
		p.tel = r.tel.Shard(tid)
		return p
	default:
		return r.inner.Private(tid)
	}
}

// Finalize completes the region serially; see finalize.
func (r *Planned[T]) Finalize() { r.finalize(nil) }

// FinalizeWith completes the region using the team: record/passthrough
// forward to the inner strategy's parallel finalize, execute runs the
// exchange merge owner-parallel (each owner writes only its range).
func (r *Planned[T]) FinalizeWith(t *par.Team) { r.finalize(t) }

func (r *Planned[T]) finalize(t *par.Team) {
	switch r.mode {
	case modeRecord:
		r.innerFinalize(t)
		r.misses++
		r.tel.Shard(0).Inc(telemetry.PlanMisses)
		r.compile(t)
	case modeExecute:
		r.finalizeExec(t)
	default:
		r.innerFinalize(t)
		r.misses++
		r.tel.Shard(0).Inc(telemetry.PlanMisses)
	}
	clear(r.active)
}

func (r *Planned[T]) innerFinalize(t *par.Team) {
	if t != nil {
		r.inner.FinalizeWith(t)
	} else {
		r.inner.Finalize()
	}
}

// compile builds the execution plan from the tapes just recorded. The
// compile latency histogram observes every compile (compilation is rare;
// no decimation), behind the same nil-shard gate as the counters.
func (r *Planned[T]) compile(t *par.Team) {
	sh := r.tel.Shard(0)
	var start time.Time
	if sh != nil {
		start = time.Now()
	}
	p := compileProgram(r.tapes, len(r.out), r.threads)
	if sh != nil {
		sh.Observe(telemetry.PlanCompile, time.Since(start))
	}
	if p == nil {
		// Pattern not plannable (exchange slot overflow): stop paying the
		// recording overhead too.
		r.mode = modePassthrough
		return
	}
	r.compiles++
	if t != nil {
		p.epoch = t.Regions()
	}
	r.prog = p
	if r.kahan && r.comp == nil {
		var zero T
		r.comp = make([]T, len(r.out))
		r.mem.Alloc(memtrack.SliceBytes(len(r.out), unsafe.Sizeof(zero)))
	}
	r.mode = modeExecute
	r.account()
}

// finalizeExec completes an executor region: the valid path merges the
// exchange lists deterministically (ascending source tid, program order
// within each source); the invalid path merges what still verified, then
// serially replays every deviator's buffered prefix and overflow so each
// contribution is applied exactly once, and drops back to record mode.
func (r *Planned[T]) finalizeExec(t *par.Team) {
	valid := !r.invalid.Load()
	if valid {
		for tid := range r.tapes {
			if len(r.tapes[tid].ops) > 0 && !r.active[tid] {
				// A recorded thread sat the region out: its planned
				// contributions never arrived, so the stream changed.
				valid = false
				break
			}
		}
	}
	if valid {
		if t != nil {
			t.Run(func(o int) { r.mergeOwner(o, false) })
		} else {
			for o := 0; o < r.threads; o++ {
				r.mergeOwner(o, false)
			}
		}
		r.hits++
		r.consec = 0
		r.tel.Shard(0).Inc(telemetry.PlanHits)
		r.resetExecRegion()
		return
	}

	if t != nil {
		t.Run(func(o int) { r.mergeOwner(o, true) })
	} else {
		for o := 0; o < r.threads; o++ {
			r.mergeOwner(o, true)
		}
	}
	for tid := range r.execPrivs {
		p := &r.execPrivs[tid]
		if !r.active[tid] || !p.failed {
			continue
		}
		// The verified prefix filled exchange slots 0..cur-1, whose
		// destinations the plan knows; the overflow tape holds everything
		// after the deviation. Plain adds: determinism (and Kahan order)
		// is waived for the one invalid region.
		fgn := r.prog.fgn[tid]
		for k := 0; k < p.cur; k++ {
			r.out[fgn[k]] += p.ex[k]
		}
		for k, d := range p.ovIdx {
			r.out[d] += p.ovVals[k]
		}
	}
	r.invals++
	r.consec++
	r.tel.Shard(0).Inc(telemetry.PlanInvalidations)
	r.resetExecRegion()
	r.invalid.Store(false)
	r.prog = nil
	for tid := range r.tapes {
		r.tapes[tid].reset()
	}
	if r.consec >= r.maxInval {
		r.mode = modePassthrough
	} else {
		r.mode = modeRecord
	}
	r.account()
}

// mergeOwner applies every exchange list targeting owner o's range.
// With skipFailed set (invalid regions) sources that deviated or sat out
// are skipped — their contributions go through the serial replay instead.
func (r *Planned[T]) mergeOwner(o int, skipFailed bool) {
	prog := r.prog
	hot := r.tel.Shard(o).Hot()
	for t := 0; t < r.threads; t++ {
		if skipFailed && (!r.active[t] || r.execPrivs[t].failed) {
			continue
		}
		idx := prog.exIdx[o][t]
		if len(idx) == 0 {
			continue
		}
		if t != o {
			// Every exchange entry is an index the plan routed across
			// threads — the compiled analogue of a keeper foreign
			// submission. mergeOwner runs on owner o's goroutine, so o's
			// shard is the single writer here.
			hot.RecordBatch(hotspot.PlanExchange, idx)
		}
		pos := prog.exPos[o][t]
		ex := r.execPrivs[t].ex
		if r.kahan {
			mergeExchangeKahan(r.out, r.comp, idx, pos, ex)
		} else {
			mergeExchange(r.out, idx, pos, ex)
		}
	}
}

func (r *Planned[T]) resetExecRegion() {
	for tid := range r.execPrivs {
		p := &r.execPrivs[tid]
		p.cur = 0
		p.opPos = 0
		p.seqOff = 0
		p.failed = false
		p.ovIdx = p.ovIdx[:0]
		p.ovVals = p.ovVals[:0]
	}
}

// account recharges the wrapper's retained footprint: tapes, compiled
// plan arrays, and the exchange buffers the plan will require. Exchange
// buffers are charged at their planned size when the plan is compiled
// (allocation happens lazily per thread in Private).
func (r *Planned[T]) account() {
	var zero T
	held := tapeBytes(r.tapes)
	if p := r.prog; p != nil {
		held += p.bytes
		for t := range p.fgn {
			held += memtrack.SliceBytes(len(p.fgn[t]), unsafe.Sizeof(zero))
		}
	}
	for tid := range r.execPrivs {
		p := &r.execPrivs[tid]
		held += 4*int64(cap(p.ovIdx)) + memtrack.SliceBytes(cap(p.ovVals), unsafe.Sizeof(zero))
	}
	r.mem.Free(r.memHeld)
	r.mem.Alloc(held)
	r.memHeld = held
}

// EnableMidDrain forwards to the inner strategy's drain machinery in the
// modes that run it; in execute mode the inner strategy is bypassed and
// there is nothing to drain, so publication is switched off.
func (r *Planned[T]) EnableMidDrain(on bool) {
	if r.drainer == nil {
		return
	}
	r.drainer.EnableMidDrain(on && r.mode != modeExecute)
	r.midDrain = on
}

// DrainMid forwards the chunk-boundary hook in record and passthrough
// modes. Executor threads have no inbound work to apply mid-region
// (foreign traffic is buffered locally until the finalize merge), so the
// hook is a no-op while a plan holds.
func (r *Planned[T]) DrainMid(tid int) {
	if !r.midDrain || r.mode == modeExecute {
		return
	}
	r.drainer.DrainMid(tid)
}

// Instrument attaches (nil: detaches) the recorder to the wrapper and
// the inner reducer: plan counters (plan-hits, plan-misses,
// plan-invalidations, plan-compile-latency) appear next to the inner
// strategy's own in one report.
func (r *Planned[T]) Instrument(rec *telemetry.Recorder) {
	r.tel = rec
	if in, ok := r.inner.(core.Instrumentable); ok {
		in.Instrument(rec)
	}
}

// Bytes reports the inner strategy's memory plus the retained plan
// footprint (tapes, compiled arrays, exchange buffers, compensation).
func (r *Planned[T]) Bytes() int64     { return r.inner.Bytes() + r.mem.Bytes() }
func (r *Planned[T]) PeakBytes() int64 { return r.inner.PeakBytes() + r.mem.Peak() }
func (r *Planned[T]) Name() string     { return "plan+" + r.inner.Name() }
func (r *Planned[T]) Threads() int     { return r.threads }

// Stats is a point-in-time view of the wrapper lifecycle, for tests and
// the experiment harness. The telemetry counters carry the same numbers
// when a recorder is attached; Stats works without one.
type Stats struct {
	Mode          string // "record", "execute", "passthrough"
	Epoch         int64  // team region epoch of the live plan (0 without a team)
	Compiles      int
	Hits          int
	Misses        int
	Invalidations int
	Owned         int64 // planned elements applied in place per region
	Foreign       int64 // planned elements routed through exchange buffers
}

// Stats reports the wrapper lifecycle counters. Call between regions.
func (r *Planned[T]) Stats() Stats {
	s := Stats{
		Mode:          r.mode.String(),
		Compiles:      r.compiles,
		Hits:          r.hits,
		Misses:        r.misses,
		Invalidations: r.invals,
	}
	if p := r.prog; p != nil {
		s.Epoch = p.epoch
		s.Owned = p.owned
		s.Foreign = p.foreign
	}
	return s
}

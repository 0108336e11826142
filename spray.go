// Package spray is a Go reproduction of the SPRAY library from
// "Spray: Sparse Reductions of Arrays in OpenMP" (Hückelheim & Doerfert,
// 2021): interchangeable reducer objects for concurrent sparse reductions
// into arrays.
//
// A reduction here means many goroutines collaboratively performing
// "out[i] += v" where each goroutine touches only part of out. SPRAY
// separates the intent (safely accumulate) from the implementation
// (privatize, use atomics, claim blocks, queue with owners, ...) behind
// one minimal interface, so the strategy can be swapped with a one-line
// change:
//
//	team := spray.NewTeam(8)
//	defer team.Close()
//	spray.ReduceFor(team, spray.BlockCAS(1024), out, 1, n, spray.Static(),
//		func(acc spray.Accessor[float64], from, to int) {
//			for i := from; i < to; i++ {
//				acc.Add(i-1, fn0(in[i]))
//				acc.Add(i+1, fn1(in[i]))
//			}
//		})
//
// Replace BlockCAS(1024) with Atomic(), Keeper(), Dense(), ... and nothing
// else changes; every strategy guarantees all contributions are visible in
// out when ReduceFor returns. For repeated regions over the same array
// (time loops), construct a Reducer once with New and drive it with
// RunReduction to reuse its internal allocations.
package spray

import (
	"runtime"

	"spray/internal/core"
	"spray/internal/num"
	"spray/internal/par"
)

// Value is the element type constraint for reducers: any floating-point
// array element type.
type Value = num.Float

// Accessor is the per-goroutine handle used inside a parallel region in
// place of the original array; Add is the equivalent of the paper's
// overloaded "+=" on a reducer object. An Accessor must only be used by
// the goroutine it was issued to.
//
// It is a generic alias for the core accessor interface, so reducers
// constructed by New hand their concrete accessors straight to the body
// with no wrapping layer in between. The methods are:
//
//	Add(i int, v T)  // accumulate v into position i
//	Done()           // end of this goroutine's updates for the region
//
// RunReduction and ReduceFor call Done for you.
type Accessor[T Value] = core.Private[T]

// BulkAccessor extends Accessor with the batched update entry points:
//
//	AddN(base int, vals []T)        // out[base+j] += vals[j]
//	Scatter(idx []int32, vals []T)  // out[idx[j]] += vals[j]
//
// Both are exactly equivalent to the element-wise Add loop in ascending
// batch order (bitwise, including compensated-summation order), but pay
// one dynamic dispatch per batch instead of one per element and let each
// strategy exploit the batch structure (a block reducer resolves the
// target block once per run, the keeper partitions a scatter by owner
// with whole-slice appends, ...). Obtain one with Bulk.
type BulkAccessor[T Value] = core.BulkPrivate[T]

// Bulk upgrades an Accessor to its bulk interface. Every strategy built
// by New implements the bulk methods natively, so this is a single type
// assertion; third-party accessors that only implement Add are wrapped
// in an element-wise shim. Call it once per chunk, outside the inner
// loop.
func Bulk[T Value](acc Accessor[T]) BulkAccessor[T] { return core.AsBulk(acc) }

// Reducer wraps a target array with a reduction strategy. Private hands
// out per-thread Accessors; after Finalize returns, every contribution
// made through any Accessor is visible in the wrapped array and the
// Reducer is ready for the next region.
//
// It is a generic alias for the core reducer interface; New returns the
// concrete strategy behind this interface directly, with no adapter
// layer. The methods are:
//
//	Private(tid int) Accessor[T]  // per-thread accessor, tid in [0, Threads())
//	Finalize()                    // serial fix-up/combine step
//	FinalizeWith(t *Team)         // fix-up using the team where the strategy
//	                              // can parallelize it (else same as Finalize)
//	Bytes() int64                 // current extra memory in bytes
//	PeakBytes() int64             // high-water mark of extra memory
//	Name() string                 // strategy name, e.g. "block-cas-1024"
//	Threads() int                 // team size the Reducer was built for
type Reducer[T Value] = core.Reducer[T]

// Team re-exports the goroutine team of the parallel runtime; it plays the
// role of an OpenMP thread team. Create with NewTeam, reuse across
// regions, Close when done.
type Team = par.Team

// Schedule re-exports the loop schedules of the parallel runtime.
type Schedule = par.Schedule

// NewTeam creates a team with n members (n >= 1).
func NewTeam(n int) *Team { return par.NewTeam(n) }

// DefaultTeam creates a team sized to GOMAXPROCS.
func DefaultTeam() *Team { return par.NewTeam(runtime.GOMAXPROCS(0)) }

// Static returns the default OpenMP schedule (one contiguous chunk per
// thread) used in all of the paper's experiments.
func Static() Schedule { return par.Static() }

// StaticChunk returns a round-robin static schedule with fixed chunks.
func StaticChunk(c int) Schedule { return par.StaticChunk(c) }

// Dynamic returns a first-come-first-served schedule with the given chunk
// size (<= 0 selects the OpenMP default of 1).
func Dynamic(c int) Schedule { return par.Dynamic(c) }

// Guided returns a shrinking-chunk schedule with the given minimum chunk.
func Guided(c int) Schedule { return par.Guided(c) }

// Steal returns the work-stealing schedule: members start on their
// static slices (preserving keeper's ownership locality) and steal
// chunks from the nearest busy member when they run dry, with adaptive
// grain sizing. grain <= 0 selects an automatic minimum grain.
func Steal(grain int) Schedule { return par.Steal(grain) }

// ParseSchedule parses a schedule from its string form — "static",
// "static:64", "dynamic:8", "guided", "steal:4096", ... — for CLI flags
// and config files.
func ParseSchedule(s string) (Schedule, error) { return par.ParseSchedule(s) }

// ParallelFor executes [lo, hi) on the team under the schedule, invoking
// body once per assigned chunk — a plain parallel loop with no reduction.
func ParallelFor(t *Team, lo, hi int, s Schedule, body func(tid, from, to int)) {
	par.ParallelFor(t, lo, hi, s, body)
}

// New constructs a Reducer applying strategy st to out for a team of the
// given size. The constructor itself is cheap; strategy-specific memory is
// allocated lazily per thread (the paper's init semantics). The returned
// interface is backed by the concrete strategy type directly — there is
// no adapter layer between the public API and the implementation.
func New[T Value](st Strategy, out []T, threads int) Reducer[T] {
	switch st.kind {
	case kindBuiltin:
		return core.NewBuiltin(out, threads)
	case kindDense:
		return core.NewDense(out, threads)
	case kindAtomic:
		return core.NewAtomic(out, threads)
	case kindMap:
		return core.NewMap(out, threads)
	case kindBTree:
		return core.NewBTree(out, threads, st.param)
	case kindBlockPrivate:
		return core.NewBlock(out, threads, st.param, core.BlockPrivate)
	case kindBlockLock:
		return core.NewBlock(out, threads, st.param, core.BlockLock)
	case kindBlockCAS:
		return core.NewBlock(out, threads, st.param, core.BlockCAS)
	case kindKeeper:
		return core.NewKeeper(out, threads)
	case kindOrdered:
		return core.NewOrdered(out, threads)
	case kindCompensated:
		return core.NewCompensated(out, threads)
	default:
		panic("spray: unknown strategy " + st.String())
	}
}

// RunReduction executes one parallel region over [lo, hi): each team
// member receives its Accessor, processes its chunks through body, and the
// reducer is finalized with the team. The Reducer must have been built
// with threads == t.Size().
func RunReduction[T Value](t *Team, r Reducer[T], lo, hi int, s Schedule, body func(acc Accessor[T], from, to int)) {
	if r.Threads() != t.Size() {
		panic("spray: reducer thread count does not match team size")
	}
	c := par.NewChunker(s, lo, hi, t.Size())
	c.SetRecorder(t.Recorder())
	if d, ok := r.(core.MidRegionDrainer); ok {
		// Cooperative mid-region drain: publication on, and each member
		// applies its inbound work at its chunk boundaries instead of
		// deferring everything to the finalize step.
		d.EnableMidDrain(true)
		c.SetChunkDone(d.DrainMid)
	}
	t.Run(func(tid int) {
		acc := r.Private(tid)
		c.For(tid, func(from, to int) { body(acc, from, to) })
		acc.Done()
	})
	r.FinalizeWith(t)
}

// ReduceFor is the one-shot convenience driver: build a Reducer for st,
// run the region, finalize, and return the Reducer (for its memory
// statistics). Equivalent to the paper's wrap-and-annotate usage pattern.
func ReduceFor[T Value](t *Team, st Strategy, out []T, lo, hi int, s Schedule, body func(acc Accessor[T], from, to int)) Reducer[T] {
	r := New(st, out, t.Size())
	RunReduction(t, r, lo, hi, s, body)
	return r
}

// ReduceForEach is the per-index form of ReduceFor, closest to the
// paper's source listings; prefer the chunked form for tight inner
// loops.
func ReduceForEach[T Value](t *Team, st Strategy, out []T, lo, hi int, s Schedule, body func(acc Accessor[T], i int)) Reducer[T] {
	return ReduceFor(t, st, out, lo, hi, s, func(acc Accessor[T], from, to int) {
		for i := from; i < to; i++ {
			body(acc, i)
		}
	})
}

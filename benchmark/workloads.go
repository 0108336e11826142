package main

import (
	"fmt"
	"math"

	"spray"
	"spray/internal/conv"
	"spray/internal/lulesh"
	"spray/internal/sparse"
)

// threads is the team size of every parallel step: the two cores of the
// host the benchmark was defined on. GOMAXPROCS is left untouched.
const threads = 2

// instance is one set-up workload. parStep and seqStep are the timed
// parallel step and its sequential control; check verifies the parallel
// result of the step pair just run and resets the outputs, outside the
// timed window.
type instance interface {
	team() *spray.Team
	parStep()
	seqStep()
	check() bool
	// peakBytes is the extra-memory high-water mark of the reducers,
	// taken where it does not depend on who won a claim race: see the
	// implementations.
	peakBytes() int64
	// updates is the number of `out[i] += v` updates in one step, or 0
	// when the program performs them out of the benchmark's sight.
	updates() int64
	close()
}

// setupTimes splits one set-up: input generation (with the reference
// result), and the team plus reducer construction.
type setupTimes struct {
	inputs, build float64 // seconds
}

// workload is one benchmark input set.
type workload struct {
	name string
	// minSteps is the fewest timed step pairs of a run, so that at least
	// ten samples lie beyond the p99.
	minSteps int
	// setup builds an instance from the seed; small shrinks the inputs
	// for tests.
	setup func(seed int64, small bool) (instance, setupTimes)
}

// The workloads vary the access shape, not just the size, so that a
// change to one layer is seen by a workload that exercises it and by one
// that bypasses it.
var workloads = []workload{
	// The Fig. 9 1-D conv back-propagation through RunBackprop (the AddN
	// bulk path) into 1 MiB of float32, with one reused keeper reducer:
	// the work is the bulk accumulate kernel, with keeper's mid-region
	// drain on the path.
	{name: "conv-bulk", minSteps: 4000, setup: setupConvBulk},
	// The paper's listing shape: ReduceForEach builds a fresh
	// block-cas-1024 reducer every step and issues three element-wise
	// Adds per index, so reducer construction, lazy per-thread
	// allocation, Accessor dispatch, finalize and fork/join dominate and
	// the bulk kernels are bypassed.
	{name: "conv-oneshot", minSteps: 6000, setup: setupConvOneshot},
	// y += Aᵀx through RunTMulVec (one Scatter per row) on an
	// s3dkt3m2-like banded matrix with a reused block-cas-1024 reducer:
	// data-dependent scatter, block claims and fallbacks dominate inside
	// one ~3 ms region, so the region's fixed cost is negligible.
	{name: "tmv-banded", minSteps: 1000, setup: setupTMV},
	// A mini-LULESH 20³ timestep with block-cas-1024 force accumulation:
	// 17 regions per step, most of them plain ParallelFor or ScalarReduce
	// beside the force scatters, so a change that helps reduction regions
	// but costs plain regions shows here.
	{name: "lulesh", minSteps: 1000, setup: setupLULESH},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// reduceInst is one of the three workloads that reduce into a float32
// array through a spray reducer the benchmark hands to the program.
type reduceInst struct {
	tm       *spray.Team
	out, ctl []float32 // parallel output, sequential control output
	ref      []float32 // sequential result, computed once
	nUpdates int64

	// r is the reused reducer; nil when every step builds its own.
	r, cur spray.Reducer[float32]
	st     spray.Strategy
	// wrap, when set, wraps every reducer the steps use (the traced
	// phase, and tests).
	wrap func(spray.Reducer[float32]) spray.Reducer[float32]
	// drive runs one parallel step through a reducer wrapping out.
	drive func(r spray.Reducer[float32])
	// oneshot is the unwrapped step of a workload without a reused
	// reducer; the wrapped form expands it into New plus drive.
	oneshot func() spray.Reducer[float32]
	control func()
	// last is the fresh reducer of the latest step; check books its peak
	// into peaks, outside the timed window.
	last  spray.Reducer[float32]
	peaks []int64
	// steps counts checked steps; peakAt is the reused reducer's
	// high-water mark after peakStep of them.
	steps  int
	peakAt int64

	newUS         float64 // construction time of the reused reducer
	computeMetric string  // the workload module's compute metric
}

func (w *reduceInst) team() *spray.Team { return w.tm }
func (w *reduceInst) seqStep()          { w.control() }
func (w *reduceInst) updates() int64    { return w.nUpdates }
func (w *reduceInst) close()            { w.tm.Close() }

// setWrap installs (nil: removes) the reducer wrapper.
func (w *reduceInst) setWrap(wrap func(spray.Reducer[float32]) spray.Reducer[float32]) {
	w.wrap = wrap
	if w.r != nil {
		w.cur = w.r
		if wrap != nil {
			w.cur = wrap(w.r)
		}
	}
}

func (w *reduceInst) parStep() {
	switch {
	case w.r != nil:
		w.drive(w.cur)
	case w.wrap == nil:
		w.last = w.oneshot()
	default:
		w.last = spray.New(w.st, w.out, threads)
		w.drive(w.wrap(w.last))
	}
}

func (w *reduceInst) check() bool {
	ok := withinTol(w.out, w.ref)
	clear(w.out)
	clear(w.ctl)
	w.steps++
	if w.last != nil && len(w.peaks) < cap(w.peaks) {
		w.peaks = append(w.peaks, w.last.PeakBytes())
	}
	if w.r != nil && w.steps == peakStep {
		w.peakAt = w.r.PeakBytes()
	}
	return ok
}

// peakStep is the step after which a reused reducer's high-water mark is
// taken. In one region every block both members touch costs exactly one
// fallback buffer, whoever wins its claim race, so the mark after the
// first step is the same from run to run. Later steps pool another
// buffer only when a race happens to invert, which a run of thousands
// of steps sometimes does and sometimes does not see.
const peakStep = 1

// peakBytes is the reused reducer's high-water mark after peakStep
// steps, or the median over steps of the fresh reducers' marks.
func (w *reduceInst) peakBytes() int64 {
	switch {
	case w.r == nil:
		return int64(median(w.peaks))
	case w.peakAt > 0:
		return w.peakAt
	default:
		return w.r.PeakBytes()
	}
}

// Stencil taps of the conv workloads.
const wl, wc, wr = 0.25, 0.5, 0.25

// newConvInst generates the seeded conv input of length n and its
// sequential reference result.
func newConvInst(n int, seed int64) (*reduceInst, []float32) {
	s := uniformVec(n, seed)
	w := &reduceInst{
		out:           make([]float32, n),
		ctl:           make([]float32, n),
		ref:           make([]float32, n),
		nUpdates:      3 * int64(n-2),
		computeMetric: "conv.compute_us",
	}
	convBackpropSeq(wl, wc, wr, s, w.ref)
	w.control = func() { convBackpropSeq(wl, wc, wr, s, w.ctl) }
	return w, s
}

func setupConvBulk(seed int64, small bool) (instance, setupTimes) {
	n := 262144 // 1 MiB of float32: fits in L2
	if small {
		n = 4096
	}
	var st setupTimes
	t := clock()
	w, s := newConvInst(n, seed)
	st.inputs = t.seconds()

	t = clock()
	w.tm = spray.NewTeam(threads)
	w.st = spray.Keeper()
	tn := clock()
	w.r = spray.New(w.st, w.out, threads)
	w.newUS = tn.seconds() * 1e6
	w.cur = w.r
	cw := conv.Weights3[float32]{WL: wl, WC: wc, WR: wr}
	w.drive = func(r spray.Reducer[float32]) { cw.RunBackprop(w.tm, r, s) }
	st.build = t.seconds()
	return w, st
}

func setupConvOneshot(seed int64, small bool) (instance, setupTimes) {
	n := 65536
	if small {
		n = 4096
	}
	var st setupTimes
	t := clock()
	w, s := newConvInst(n, seed)
	st.inputs = t.seconds()

	t = clock()
	w.tm = spray.NewTeam(threads)
	w.st = spray.BlockCAS(1024)
	w.peaks = make([]int64, 0, 1024)
	// The paper's listing: three element-wise Adds per index.
	each := func(acc spray.Accessor[float32], i int) {
		v := s[i]
		acc.Add(i-1, wl*v)
		acc.Add(i, wc*v)
		acc.Add(i+1, wr*v)
	}
	// ReduceForEach's documented definition: New, then RunReduction over
	// chunks that call the per-index body in order.
	chunk := func(acc spray.Accessor[float32], from, to int) {
		for i := from; i < to; i++ {
			each(acc, i)
		}
	}
	w.oneshot = func() spray.Reducer[float32] {
		return spray.ReduceForEach(w.tm, w.st, w.out, 1, n-1, spray.Static(), each)
	}
	w.drive = func(r spray.Reducer[float32]) {
		spray.RunReduction(w.tm, r, 1, n-1, spray.Static(), chunk)
	}
	st.build = t.seconds()
	return w, st
}

func setupTMV(seed int64, small bool) (instance, setupTimes) {
	rows, perRow, halfBand := 90449, 21, 600
	if small {
		rows, halfBand = 4000, 60
	}
	var st setupTimes
	t := clock()
	a := bandedCSR(rows, perRow, halfBand, seed)
	x := uniformVec(rows, seed+1)
	w := &reduceInst{
		out:           make([]float32, rows),
		ctl:           make([]float32, rows),
		ref:           make([]float32, rows),
		nUpdates:      int64(a.NNZ()),
		computeMetric: "sparse.compute_us",
	}
	tmulvecSeq(a, x, w.ref)
	w.control = func() { tmulvecSeq(a, x, w.ctl) }
	st.inputs = t.seconds()

	t = clock()
	w.tm = spray.NewTeam(threads)
	w.st = spray.BlockCAS(1024)
	tn := clock()
	w.r = spray.New(w.st, w.out, threads)
	w.newUS = tn.seconds() * 1e6
	w.cur = w.r
	w.drive = func(r spray.Reducer[float32]) { sparse.RunTMulVec(w.tm, r, a, x) }
	st.build = t.seconds()
	return w, st
}

// luleshRestart is the cycle count after which both domains restart from
// a fresh Sedov state, so every step runs in the same early blast phase.
const luleshRestart = 100

// luleshInst steps a domain with SPRAY force accumulation on the 2-member
// team beside a twin domain advanced in lockstep by LULESH's original
// 8-copy scheme on a 1-member team — the sequential control.
type luleshInst struct {
	edge      int
	tm, seqTm *spray.Team
	par, twin *lulesh.Domain
	fs, orig  lulesh.ForceScheme
	stepErr   error
	// epochPeaks holds the force scheme's high-water mark at the end of
	// every restart epoch.
	epochPeaks []int64
}

func setupLULESH(_ int64, small bool) (instance, setupTimes) {
	edge := 20
	if small {
		edge = 6
	}
	w := &luleshInst{edge: edge, epochPeaks: make([]int64, 0, 1024)}
	var st setupTimes
	t := clock()
	w.par = lulesh.New(edge, lulesh.Defaults())
	w.twin = lulesh.New(edge, lulesh.Defaults())
	st.inputs = t.seconds()

	t = clock()
	w.tm = spray.NewTeam(threads)
	w.seqTm = spray.NewTeam(1)
	w.fs = lulesh.Spray(spray.BlockCAS(1024))
	w.orig = lulesh.Original()
	st.build = t.seconds()
	return w, st
}

func (w *luleshInst) team() *spray.Team { return w.tm }

// peakBytes is the median over completed restart epochs of the force
// scheme's high-water mark (its reducers are rebuilt at every restart),
// or the current mark before the first restart.
func (w *luleshInst) peakBytes() int64 {
	if len(w.epochPeaks) == 0 {
		return w.fs.PeakBytes()
	}
	return int64(median(w.epochPeaks))
}

func (w *luleshInst) updates() int64 { return 0 }

func (w *luleshInst) close() {
	w.tm.Close()
	w.seqTm.Close()
}

func (w *luleshInst) parStep() {
	if err := w.par.Step(w.tm, w.fs); err != nil && w.stepErr == nil {
		w.stepErr = err
	}
}

func (w *luleshInst) seqStep() {
	if err := w.twin.Step(w.seqTm, w.orig); err != nil && w.stepErr == nil {
		w.stepErr = err
	}
}

// check requires a finite state every step; at each restart it also
// requires the total energy to match the twin's to a relative 1e-9, then
// rebuilds both domains and runs their first cycle untimed.
func (w *luleshInst) check() bool {
	ok := w.stepErr == nil && w.par.CheckFinite() == nil && w.twin.CheckFinite() == nil
	w.stepErr = nil
	if w.par.Cycle < luleshRestart {
		return ok
	}
	e, et := w.par.TotalEnergy(), w.twin.TotalEnergy()
	ok = ok && math.Abs(e-et) <= 1e-9*math.Abs(et)
	if len(w.epochPeaks) < cap(w.epochPeaks) {
		w.epochPeaks = append(w.epochPeaks, w.fs.PeakBytes())
	}
	w.par = lulesh.New(w.edge, lulesh.Defaults())
	w.twin = lulesh.New(w.edge, lulesh.Defaults())
	w.parStep()
	w.seqStep()
	ok = ok && w.stepErr == nil
	w.stepErr = nil
	return ok
}

package main

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"time"

	"spray"
	"spray/internal/telemetry"
)

// params are the settings of a run; tests shrink them.
type params struct {
	seconds    float64 // measuring time of the run
	setups     int     // set-ups per run; setup_s is their median
	warmup     int     // untimed step pairs closing each set-up
	allocSteps int     // step pairs of the allocation phase
	emptyRuns  int     // empty regions timed for par.empty_region_us
	minSteps   int     // when > 0, replaces the workload's minimum step pairs
	small      bool    // shrink the inputs
}

var defaultParams = params{seconds: 25, setups: 5, warmup: 20, allocSteps: 50, emptyRuns: 2000}

// maxPairs bounds the sample buffers of one phase.
const maxPairs = 1 << 22

type metric struct {
	name  string
	value float64
}

// result is what one workload run reports.
type result struct {
	workload          string
	attempted, failed int
	pairs, beyondP99  int
	setupRaw, yard    float64 // median raw set-up and yardstick seconds
	metrics           []metric
	tracer            *tracer // traced runs only
}

func (r *result) count(ok bool) {
	r.attempted++
	if !ok {
		r.failed++
	}
}

func (r *result) errorRate() float64 {
	return float64(r.failed) / float64(max(r.attempted, 1))
}

type stopwatch time.Time

func clock() stopwatch                  { return stopwatch(time.Now()) }
func (s stopwatch) seconds() float64    { return time.Since(time.Time(s)).Seconds() }
func (s stopwatch) ns() int64           { return int64(time.Since(time.Time(s))) }
func secondsOf(d float64) time.Duration { return time.Duration(d * float64(time.Second)) }

// percentile returns the q-quantile of xs by linear interpolation
// between closest ranks; 0 for an empty slice.
func percentile[T int64 | float64](xs []T, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	hi := min(lo+1, len(s)-1)
	return float64(s[lo]) + (pos-float64(lo))*float64(s[hi]-s[lo])
}

func median[T int64 | float64](xs []T) float64 { return percentile(xs, 0.5) }

// samples are the per-step times of one phase, in ns.
type samples struct{ par, seq []int64 }

func newSamples(n int) samples {
	return samples{par: make([]int64, 0, n), seq: make([]int64, 0, n)}
}

// The end-to-end times are paired: the two steps of a pair run within
// milliseconds of each other, so a change in the host's load — on a shared
// host the sequential step alone moved by 1.8x within a minute — hits both
// and cancels in their ratio, where it would skew two separate medians.

// speedup is the geometric mean of the per-pair speed-ups seq/par over
// the central 80% of the pairs.
func (s samples) speedup() float64 {
	logs := make([]float64, len(s.par))
	for i := range logs {
		logs[i] = math.Log(float64(s.seq[i]) / float64(s.par[i]))
	}
	slices.Sort(logs)
	mid := logs[len(logs)/10 : len(logs)-len(logs)/10]
	var sum float64
	for _, l := range mid {
		sum += l
	}
	return math.Exp(sum / float64(len(mid)))
}

// tail is the p99 of the per-pair slowdowns par/seq.
func (s samples) tail() float64 {
	r := make([]float64, len(s.par))
	for i := range r {
		r[i] = float64(s.par[i]) / float64(s.seq[i])
	}
	return percentile(r, 0.99)
}

// byteFloor is the smallest value the byte metrics report: one cache
// line, so that they are never 0 and a change below it does not count.
const byteFloor = 64

// loop runs timed step pairs for d and at least minSteps pairs, or until
// the sample buffers are full. The order alternates every pair — seq then
// par, then par then seq — so drift on a shared host hits both sides
// alike. With a tracer, the parallel step is timed by it.
func (r *result) loop(inst instance, d time.Duration, minSteps int, tr *tracer, s *samples) {
	deadline := time.Now().Add(d)
	for i := 0; len(s.par) < cap(s.par); i++ {
		if i >= minSteps && !time.Now().Before(deadline) {
			return
		}
		if i%2 == 0 {
			s.seq = append(s.seq, seqTime(inst))
		}
		s.par = append(s.par, parTime(inst, tr))
		if i%2 == 1 {
			s.seq = append(s.seq, seqTime(inst))
		}
		r.count(inst.check())
	}
}

func seqTime(inst instance) int64 {
	t := clock()
	inst.seqStep()
	return t.ns()
}

func parTime(inst instance, tr *tracer) int64 {
	if tr != nil {
		tr.beginStep()
		inst.parStep()
		return tr.endStep()
	}
	t := clock()
	inst.parStep()
	return t.ns()
}

// allocPerStep runs n step pairs and returns the median of the heap bytes
// each parallel step allocated. The windows read exact totals
// (ReadMemStats flushes the allocation caches), so allocations of the
// controls — LULESH's original scheme allocates — and of the checks stay
// out, and the timed phases are not perturbed by these stop-the-world
// reads. The median leaves out the rare step in which a block reducer
// grows its buffer pool after losing a claim race; that growth shows in
// peak_extra_bytes.
func (r *result) allocPerStep(inst instance, n int) float64 {
	var ms runtime.MemStats
	bytes := make([]float64, n)
	for i := range bytes {
		inst.seqStep()
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		inst.parStep()
		runtime.ReadMemStats(&ms)
		bytes[i] = float64(ms.TotalAlloc - before)
		r.count(inst.check())
	}
	return median(bytes)
}

// yardstickRef is the yardstick's time on the host the benchmark was
// defined on (2 vCPUs, quiet): setup_s is expressed at that speed.
const yardstickRef = 1.5e-3

// yardstick is a fixed sequential job owned by the benchmark — the
// Figure 9 loop over 1 Mi float32 — timed right after every set-up, so
// that the set-up time can be scaled to one host speed: on a shared host
// the speed of every step moved by a quarter between batches of runs.
type yardstick struct{ seed, out []float32 }

func newYardstick() yardstick {
	const n = 1 << 20
	y := yardstick{seed: uniformVec(n, 0), out: make([]float32, n)}
	convBackpropSeq(wl, wc, wr, y.seed, y.out) // fault the pages in
	return y
}

// seconds is the median time of three runs of the job.
func (y yardstick) seconds() float64 {
	var t [3]float64
	for i := range t {
		c := clock()
		convBackpropSeq(wl, wc, wr, y.seed, y.out)
		t[i] = c.seconds()
	}
	return median(t[:])
}

// setupRecord is one measured set-up.
type setupRecord struct {
	total, inputs, build, warmup float64 // seconds
	yardstick                    float64 // seconds, measured right after
}

// runWorkload sets w up p.setups times, keeping the last instance, then
// measures it: the end-to-end metrics from an untraced phase, or, when
// traced, the per-layer metrics from an untraced and a traced phase of
// half the run each.
func runWorkload(w *workload, seed int64, p params, traced bool) *result {
	res := &result{workload: w.name}
	minSteps := w.minSteps
	if p.minSteps > 0 {
		minSteps = p.minSteps
	}
	var inst instance
	yard := newYardstick()
	setups := make([]setupRecord, p.setups)
	for k := range setups {
		if inst != nil {
			inst.close()
		}
		t := clock()
		var st setupTimes
		inst, st = w.setup(seed, p.small)
		tw := clock()
		for i := 0; i < p.warmup; i++ {
			inst.seqStep()
			inst.parStep()
			res.count(inst.check())
		}
		setups[k] = setupRecord{total: t.seconds(), inputs: st.inputs, build: st.build, warmup: tw.seconds()}
		setups[k].yardstick = yard.seconds()
	}
	defer inst.close()
	res.setupRaw = median(fieldOf(setups, func(s setupRecord) float64 { return s.total }))
	res.yard = median(fieldOf(setups, func(s setupRecord) float64 { return s.yardstick }))
	pairSecs := setups[len(setups)-1].warmup / float64(max(p.warmup, 1))
	capFor := func(secs float64) int {
		return min(int(2*secs/max(pairSecs, 1e-7)), maxPairs) + minSteps
	}

	secs := p.seconds
	if traced {
		secs /= 2
	}
	plain := newSamples(capFor(secs))
	res.loop(inst, secondsOf(secs), minSteps, nil, &plain)
	res.pairs = len(plain.par)
	res.beyondP99 = len(plain.par) - int(math.Ceil(0.99*float64(len(plain.par))))

	if !traced {
		res.metrics = []metric{
			{"speedup_vs_seq", plain.speedup()},
			{"tail_vs_seq", plain.tail()},
			{"peak_extra_bytes", max(float64(inst.peakBytes()), byteFloor)},
			{"alloc_bytes_per_step", max(res.allocPerStep(inst, p.allocSteps), byteFloor)},
			{"setup_s", yardstickRef * median(fieldOf(setups, func(s setupRecord) float64 { return s.total / s.yardstick }))},
		}
		return res
	}

	team := inst.team()
	tr := newTracer(team, capFor(secs))
	res.tracer = tr
	ri, wrapped := inst.(*reduceInst)
	if wrapped {
		ri.setWrap(tr.wrap)
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	traced2 := newSamples(capFor(secs))
	res.loop(inst, secondsOf(secs), minSteps, tr, &traced2)
	runtime.ReadMemStats(&ms1)
	if wrapped {
		ri.setWrap(nil)
	}

	steps := float64(len(traced2.par))
	rs := tr.timing.Snapshot()
	var wallSum int64
	for _, ns := range traced2.par {
		wallSum += ns
	}
	m := map[string]float64{
		"par.empty_region_us":          emptyRegionUS(team, p.emptyRuns),
		"par.regions_per_step":         float64(tr.regions) / steps,
		"par.imbalance":                rs.LoadImbalance(),
		"par.region_share":             float64(rs.Wall) / float64(wallSum),
		"runtime.gc_per_1k_steps":      float64(ms1.NumGC-ms0.NumGC) / steps * 1000,
		"runtime.gc_pause_us_per_step": float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / steps / 1e3,
		"wall.step_p50_us":             median(plain.par) / 1e3,
		"wall.step_p99_us":             percentile(plain.par, 0.99) / 1e3,
		"seq.step_p50_us":              median(plain.seq) / 1e3,
		"setup.inputs_s":               median(fieldOf(setups, func(s setupRecord) float64 { return s.inputs })),
		"setup.reducer_us":             median(fieldOf(setups, func(s setupRecord) float64 { return s.build })) * 1e6,
		"setup.warmup_s":               median(fieldOf(setups, func(s setupRecord) float64 { return s.warmup })),
		"trace.overhead":               plain.speedup()/traced2.speedup() - 1,
	}
	if n := inst.updates(); n > 0 {
		m["seq.ns_per_update"] = median(traced2.seq) / float64(n)
	}
	if wrapped {
		reducerLayers(m, tr, ri, steps)
	} else {
		// The program builds and drives LULESH's reducers itself, so only
		// the team's region timing is visible from outside.
		var idle time.Duration
		for _, b := range rs.Busy {
			idle += rs.Wall - b
		}
		m["par.join_wait_us"] = float64(idle) / steps / 1e3
		m["lulesh.serial_us"] = float64(wallSum-int64(rs.Wall)) / steps / 1e3
	}
	for _, d := range perLayer {
		res.metrics = append(res.metrics, metric{d.name, m[d.name]})
	}
	return res
}

// reducerLayers books the metrics read from the tracing wrapper and the
// reducer's counters.
func reducerLayers(m map[string]float64, tr *tracer, ri *reduceInst, steps float64) {
	us := func(f func(l ledger) int64) float64 {
		return median(fieldOf(tr.ledgers, func(l ledger) float64 { return float64(f(l)) })) / 1e3
	}
	m["par.dispatch_us"] = us(func(l ledger) int64 { return l.dispatch })
	m["par.join_us"] = us(func(l ledger) int64 { return l.join })
	m["par.join_wait_us"] = us(func(l ledger) int64 { return l.joinWaitAll })
	m["core.private_us"] = us(func(l ledger) int64 { return l.private })
	m["core.done_us"] = us(func(l ledger) int64 { return l.done })
	m["core.finalize_us"] = us(func(l ledger) int64 { return l.finalize })
	m["core.new_us"] = ri.newUS
	if ri.r == nil {
		m["core.new_us"] = us(func(l ledger) int64 { return l.new })
	}
	m["trace.ledger_residual"] = percentile(fieldOf(tr.ledgers, ledger.residualShare), 0.99)

	var acc, drain, body, updates, scattered, calls int64
	for i := range tr.members {
		ms := &tr.members[i]
		acc += ms.accNS
		drain += ms.drainNS
		body += ms.bodyNS
		updates += ms.updates
		scattered += ms.scattered
		calls += ms.calls
	}
	bytes := bytesPerUpdate*updates + bytesPerIndex*scattered
	perMember := steps * float64(len(tr.members))
	m["core.accumulate_us"] = float64(acc) / perMember / 1e3
	m["core.drain_us"] = float64(drain) / perMember / 1e3
	m[ri.computeMetric] = float64(body-acc-drain) / perMember / 1e3
	m["core.updates_per_step"] = float64(updates) / steps
	m["core.calls_per_step"] = float64(calls) / steps
	if acc > 0 {
		m["core.ns_per_update"] = float64(acc) / float64(updates)
		m["core.computed_gbps"] = float64(bytes) / float64(acc)
	}

	c := tr.rec.Snapshot()
	share := func(part, total uint64) float64 {
		if total == 0 {
			return 0
		}
		return float64(part) / float64(total)
	}
	owned, foreign := c.Get(telemetry.KeeperOwned), c.Get(telemetry.KeeperForeign)
	claims, fallbacks := c.Get(telemetry.BlockClaims), c.Get(telemetry.BlockFallbacks)
	m["core.keeper_foreign_share"] = share(foreign, owned+foreign)
	m["core.block_fallback_share"] = share(fallbacks, claims+fallbacks)
	m["core.cas_retries_per_update"] = share(c.Get(telemetry.CASRetries), c.Get(telemetry.Updates)+c.Get(telemetry.BulkElems))
}

// emptyRegionUS is the median time of a Team.Run with an empty body.
func emptyRegionUS(team *spray.Team, n int) float64 {
	empty := func(int) {}
	times := make([]int64, n)
	for i := range times {
		t := clock()
		team.Run(empty)
		times[i] = t.ns()
	}
	return median(times) / 1e3
}

func fieldOf[S any](xs []S, f func(S) float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = f(x)
	}
	return out
}

// describe is the one-line summary printed before a workload's metrics.
func (r *result) describe(seed int64, p params) string {
	return fmt.Sprintf("# %s seed=%d pairs=%d beyond_p99=%d setups=%d warmup=%d team=%d setup_raw_s=%.4g yardstick_s=%.4g",
		r.workload, seed, r.pairs, r.beyondP99, p.setups, p.warmup, threads, r.setupRaw, r.yard)
}

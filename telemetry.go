package spray

import (
	"errors"
	"fmt"
	"io"
	"strings"
	"time"
	"unsafe"

	"spray/internal/core"
	"spray/internal/hotspot"
	"spray/internal/par"
	"spray/internal/telemetry"
)

// WorkerPanic re-exports the panic wrapper raised by Team.Run when a
// region body panics: it carries the member's tid, the original panic
// value, and the goroutine stack captured where the panic happened.
type WorkerPanic = par.WorkerPanic

// Instrument attaches runtime telemetry to a reducer driven by team t and
// returns the handle for reading it back. Telemetry is strictly opt-in:
// an uninstrumented reducer pays one predictable nil-check branch per
// counted event and a team without timing dispatches regions untouched.
//
// Instrumenting does two things:
//
//   - the reducer's accessors start bumping per-thread, cache-line-padded
//     counter shards (updates, bulk runs, CAS retries, block claims and
//     fallbacks, keeper queue traffic, entry counts — whichever events the
//     strategy has);
//   - the team gets a region-lifecycle Timing (reused if one is already
//     attached): wall time per region, per-member busy time, barrier wait.
//
// Read the accumulated numbers with Report, zero them with Reset, and call
// Detach when done. Instrument must not be called while a region is
// running. Reducers built by New all support counters; a third-party
// Reducer is still timed, its counters just stay zero.
func Instrument[T Value](t *Team, r Reducer[T]) *Instrumentation {
	var zero T
	in := &Instrumentation{
		rec:       telemetry.NewRecorder(r.Name(), t.Size()),
		team:      t,
		strategy:  r.Name(),
		bytes:     r.Bytes,
		peak:      r.PeakBytes,
		lineElems: 64 / int(unsafe.Sizeof(zero)),
	}
	if ir, ok := r.(core.Instrumentable); ok {
		ir.Instrument(in.rec)
		in.detach = func() { ir.Instrument(nil) }
	}
	if t.Recorder() == nil {
		// The loop runtime shares the reducer's recorder: steal-schedule
		// counters (steals, grain splits, per-member chunks) land in the
		// same shards and the same report as the strategy's own events.
		t.SetRecorder(in.rec)
		in.ownsTeamRec = true
	}
	if tm := t.Timing(); tm != nil {
		in.tm = tm
	} else {
		in.tm = par.NewTiming(t.Size())
		t.SetTiming(in.tm)
		in.ownsTiming = true
	}
	return in
}

// Instrumentation is the handle returned by Instrument: it owns the
// reducer's counter recorder and the team's timing accumulator for the
// duration of the attachment.
type Instrumentation struct {
	rec         *telemetry.Recorder
	tm          *par.Timing
	team        *Team
	strategy    string
	bytes       func() int64
	peak        func() int64
	detach      func()
	ownsTiming  bool
	ownsTeamRec bool
	tracer      *telemetry.Tracer
	ownsTracer  bool
	lineElems   int
	hot         *hotspot.Profiler
}

// HotspotOptions re-exports the contention profiler's configuration;
// the zero value selects the defaults (4x1024 count-min sketch, top-32
// candidate table, 1-in-64 sampling).
type HotspotOptions = hotspot.Options

// HotspotProfiler re-exports the profiler handle for embedders that
// drive snapshots themselves.
type HotspotProfiler = hotspot.Profiler

// HotspotProfile re-exports the serializable aggregate the profiler
// produces — what -hotprofile writes and sprayadvise -profile consumes.
type HotspotProfile = hotspot.Profile

// EnableHotspot attaches the index-space contention profiler to the
// instrumented reducer: conflict events (CAS retries, block claim
// contention, keeper foreign submissions) are attributed to
// cache-line-granularity regions of the n-element output array through
// per-thread count-min sketches.
// n must be the length of the reduced array. A zero Options.LineElems
// defaults to the instrumented element type's cache-line width
// (64/sizeof(T)). Idempotent: a second call returns the existing
// profiler. Must not be called while a region is running.
func (in *Instrumentation) EnableHotspot(n int, opts HotspotOptions) *HotspotProfiler {
	if in.hot != nil {
		return in.hot
	}
	if opts.LineElems <= 0 {
		opts.LineElems = in.lineElems
	}
	in.hot = hotspot.New(in.strategy, n, in.rec.Threads(), opts)
	in.rec.AttachHotspot(in.hot)
	return in.hot
}

// Hotspot returns the attached contention profiler, or nil if
// EnableHotspot was never called.
func (in *Instrumentation) Hotspot() *HotspotProfiler { return in.hot }

// HotspotProfile snapshots the attached profiler into its serializable
// aggregate, with the telemetry update count — element-wise Adds plus
// elements delivered through AddN/Scatter batches — filled in as the
// conflict rate denominator. Returns nil if EnableHotspot was never
// called.
func (in *Instrumentation) HotspotProfile() *HotspotProfile {
	if in.hot == nil {
		return nil
	}
	p := in.hot.Snapshot()
	snap := in.rec.Snapshot()
	p.Updates = snap.Get(telemetry.Updates) + snap.Get(telemetry.BulkElems)
	return p
}

// EnableTrace turns on span tracing for the instrumented team: every
// region, chunk, finalize merge and keeper drain executed after the call
// is recorded as a timeline event in a bounded per-member ring buffer
// (eventsPerThread entries each; <= 0 selects the default of
// telemetry.DefaultTraceEvents). When the rings fill, the oldest events
// are dropped and counted — the report surfaces them as trace-dropped.
// Read the timeline back with WriteTrace. If the team already has a
// tracer attached (e.g. by a previous Instrumentation), it is shared.
// Must not be called while a region is running.
func (in *Instrumentation) EnableTrace(eventsPerThread int) {
	if in.tracer != nil {
		return
	}
	if tr := in.team.Tracer(); tr != nil {
		in.tracer = tr
		return
	}
	in.tracer = telemetry.NewTracer(in.team.Size(), eventsPerThread)
	in.team.SetTracer(in.tracer)
	in.ownsTracer = true
}

// WriteTrace writes everything the tracer has recorded as Chrome
// trace-event JSON — load the file at chrome://tracing or ui.perfetto.dev.
// Returns an error if EnableTrace was never called. Call after the regions
// of interest have completed; events recorded afterwards land in the same
// rings until Detach.
func (in *Instrumentation) WriteTrace(w io.Writer) error {
	if in.tracer == nil {
		return errors.New("spray: tracing not enabled; call EnableTrace first")
	}
	return in.tracer.WriteChrome(w)
}

// Tracer returns the attached span tracer, or nil if EnableTrace was
// never called.
func (in *Instrumentation) Tracer() *telemetry.Tracer { return in.tracer }

// Report snapshots everything accumulated since Instrument (or the last
// Reset) into one RegionReport. Safe to call while a region is running —
// counters and timing slots are atomic — though mid-region numbers are
// naturally partial.
func (in *Instrumentation) Report() RegionReport {
	ts := in.tm.Snapshot()
	counters := in.rec.Snapshot()
	if tr := in.tracer; tr != nil {
		counters[telemetry.TraceDropped] += tr.Dropped()
	} else if tr := in.team.Tracer(); tr != nil {
		// A tracer attached outside this Instrumentation (e.g. a trace
		// sink wired by an experiment driver) still reports its drops.
		counters[telemetry.TraceDropped] += tr.Dropped()
	}
	return RegionReport{
		Strategy:    in.strategy,
		Threads:     in.rec.Threads(),
		Regions:     ts.Regions,
		Wall:        ts.Wall,
		Busy:        ts.Busy,
		BarrierWait: ts.BarrierWait,
		Bytes:       in.bytes(),
		PeakBytes:   in.peak(),
		Counters:    counters,
		PerThread:   in.rec.PerThread(),
		Latencies:   in.rec.Hists(),
	}
}

// PerThread returns one counter snapshot per team member, for inspecting
// imbalance at the counter level (e.g. which member ate the CAS retries).
func (in *Instrumentation) PerThread() []telemetry.Snapshot { return in.rec.PerThread() }

// Reset zeroes the counters, the timing accumulator, and the contention
// profiler's sketches when one is attached.
func (in *Instrumentation) Reset() {
	in.rec.Reset()
	in.tm.Reset()
	in.hot.Reset()
}

// Detach disconnects the telemetry: the reducer returns to its
// uninstrumented fast path, and the timing, counter recorder and tracer
// that this Instrumentation attached are removed from the team.
// The Instrumentation remains readable (Report keeps returning the final
// numbers).
func (in *Instrumentation) Detach() {
	if in.detach != nil {
		in.detach()
		in.detach = nil
	}
	if in.ownsTiming && in.team.Timing() == in.tm {
		in.team.SetTiming(nil)
	}
	if in.ownsTeamRec && in.team.Recorder() == in.rec {
		in.team.SetRecorder(nil)
	}
	if in.ownsTracer && in.team.Tracer() == in.tracer {
		in.team.SetTracer(nil)
	}
}

// RegionReport is one telemetry snapshot for a (team, reducer) pair:
// region lifecycle timing from the team, memory and strategy counters from
// the reducer.
type RegionReport struct {
	Strategy    string          // reducer name, e.g. "block-cas-1024"
	Threads     int             // team size
	Regions     int             // parallel regions executed
	Wall        time.Duration   // summed Team.Run wall time
	Busy        []time.Duration // per-member time inside region bodies
	BarrierWait time.Duration   // summed time waiting at team barriers
	Bytes       int64           // reducer's current extra memory
	PeakBytes   int64           // reducer's peak extra memory
	Counters    telemetry.Snapshot
	// PerThread holds one counter snapshot per team member (nil when the
	// report was built by hand); the work-stealing imbalance rows derive
	// from its per-member chunks-executed and steal counts.
	PerThread []telemetry.Snapshot
	// Latencies holds one merged log-bucketed histogram per latency kind
	// (cas-latency, claim-latency, keeper-dwell); kinds the strategy never
	// fed have Count == 0.
	Latencies [telemetry.NumHKinds]telemetry.HistSnapshot
}

// LoadImbalance returns max over mean per-member busy time — 1.0 is a
// perfectly balanced team; 0 when no busy time was recorded.
func (r RegionReport) LoadImbalance() float64 {
	return par.RegionStats{Busy: r.Busy}.LoadImbalance()
}

// ChunkImbalance returns max over mean per-member executed chunks under
// the steal schedule — 1.0 means every member ran the same number of
// chunks; 0 when no steal-schedule chunks were recorded (other
// schedules, or no per-thread data).
func (r RegionReport) ChunkImbalance() float64 {
	var total, max uint64
	for _, s := range r.PerThread {
		c := s.Get(telemetry.ChunksExecuted)
		total += c
		if c > max {
			max = c
		}
	}
	if total == 0 {
		return 0
	}
	mean := float64(total) / float64(len(r.PerThread))
	return float64(max) / mean
}

// CounterMap returns the non-zero strategy counters keyed by name.
func (r RegionReport) CounterMap() map[string]uint64 { return r.Counters.Map() }

// WriteTable renders the report as an aligned human-readable table.
func (r RegionReport) WriteTable(w io.Writer) {
	row := func(k string, v any) { fmt.Fprintf(w, "  %-16s %v\n", k, v) }
	fmt.Fprintf(w, "spray region report: %s (%d threads)\n", r.Strategy, r.Threads)
	row("regions", r.Regions)
	row("wall", r.Wall)
	row("barrier-wait", r.BarrierWait)
	stats := par.RegionStats{Busy: r.Busy}
	row("busy max/mean", fmt.Sprintf("%v / %v", stats.MaxBusy(), stats.MeanBusy()))
	if li := r.LoadImbalance(); li > 0 {
		row("load-imbalance", fmt.Sprintf("%.2f", li))
	}
	row("bytes", r.Bytes)
	row("peak-bytes", r.PeakBytes)
	if ci := r.ChunkImbalance(); ci > 0 {
		var b strings.Builder
		for i, s := range r.PerThread {
			if i > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%d", s.Get(telemetry.ChunksExecuted))
		}
		row("chunks/member", b.String())
		row("chunk-imbalance", fmt.Sprintf("%.2f", ci))
	}
	for k := telemetry.Kind(0); k < telemetry.NumKinds; k++ {
		if v := r.Counters.Get(k); v != 0 {
			row(k.String(), v)
		}
	}
	for k := telemetry.HKind(0); k < telemetry.NumHKinds; k++ {
		if h := r.Latencies[k]; h.Count != 0 {
			row(k.String(), fmt.Sprintf("p50=%v p90=%v p99=%v max=%v (n=%d)",
				h.P50(), h.P90(), h.P99(), h.MaxLatency(), h.Count))
		}
	}
}

// String renders the report as the WriteTable text.
func (r RegionReport) String() string {
	var b strings.Builder
	r.WriteTable(&b)
	return b.String()
}

package main

import (
	"bufio"
	"fmt"
	"io"
	"time"

	"spray"
	"spray/internal/par"
	"spray/internal/telemetry"
)

// The traced run wraps the workload's reducer in a benchmark-side
// Reducer/Accessor pair that timestamps the calls into the core layer
// (Private, AddN/Scatter, DrainMid, Done, FinalizeWith), counts every
// accumulate call, and forwards each call unchanged. From those stamps each step yields a ledger along the
// critical member — the member that called Private last:
//
//	new + dispatch + private + body + done + join-wait + join + finalize
//
// partitions the step's wall time up to the short return path after
// FinalizeWith, which is the ledger residual.

const (
	// bulkMin is the batch length from which every bulk call is timed;
	// shorter ones are timed on a randomized 1-in-sampleEvery sample and
	// scaled up, because a clock read (~25-40 ns) would otherwise dwarf
	// the call. Element-wise Add (a few ns) is counted but not timed at
	// all: even sampled, the clock reads around it measure mostly
	// themselves.
	bulkMin     = 64
	sampleEvery = 16
	// spanCap bounds each span buffer; once full, later spans of that
	// buffer are not recorded.
	spanCap = 1 << 14
)

type spanKind uint8

const (
	spanStep spanKind = iota
	spanNew
	spanRegion
	spanMember
	spanPrivate
	spanChunk
	spanAddN
	spanScatter
	spanDrain
	spanDone
	spanFinalize
)

var spanNames = [...]string{"step", "new", "region", "member", "private", "chunk",
	"addn", "scatter", "drain", "done", "finalize"}

// span is one timed interval. Spans of one step share step; parent is the
// id of the enclosing span (0 for a step span).
type span struct {
	id, parent int64
	start, end int64 // ns since the tracer's base
	step       int32
	tid        int16 // team member, -1 for the stepping goroutine
	kind       spanKind
}

// Structural span ids are derived from the step number, so a member can
// name its chunk span as parent before the stepping goroutine records it.
const idsPerStep = 64

// Slots 1-3 hold the new, region and finalize spans, then four per member
// (member, private, chunk, done).
func stepSpanID(step int32) int64               { return int64(step)*idsPerStep + 1 }
func structID(step int32, slot int) int64       { return stepSpanID(step) + int64(slot) }
func memberSpanID(step int32, tid, k int) int64 { return structID(step, 4+4*tid+k) }

// memberSlot is one team member's per-step stamps and running totals. It
// is written only by its member during a region and read by the stepping
// goroutine after the region has joined.
type memberSlot struct {
	pS, pE, dS, dE int64 // Private and Done call stamps of the current step

	accNS, drainNS, bodyNS int64
	// updates counts every accumulated element, scattered those that came
	// with an index; calls counts accumulate calls.
	updates, scattered, calls int64
	gap                       int
	rng                       uint64
	nextID                    int64
	spans                     []span
	_                         [64]byte
}

// sample reports whether to time this short call. The gaps between timed
// calls are uniform on [1, 2·sampleEvery), so one call in sampleEvery is
// timed on average and the sample cannot phase-lock with a periodic call
// pattern.
func (m *memberSlot) sample() bool {
	m.gap--
	if m.gap > 0 {
		return false
	}
	m.rng ^= m.rng << 13
	m.rng ^= m.rng >> 7
	m.rng ^= m.rng << 17
	m.gap = 1 + int(m.rng%(2*sampleEvery-1))
	return true
}

func (m *memberSlot) record(s span) {
	if len(m.spans) < cap(m.spans) {
		m.spans = append(m.spans, s)
	}
}

// ledger holds one traced step's parts, in ns.
type ledger struct {
	wall, new, dispatch, private, body, done, joinWait, join, finalize int64
	// joinWaitAll sums every member's wait for the slowest one.
	joinWaitAll int64
}

func (l ledger) residual() int64 {
	return l.wall - (l.new + l.dispatch + l.private + l.body + l.done + l.joinWait + l.join + l.finalize)
}

// residualShare is the residual as a share of the step's wall time. It is
// the return path after FinalizeWith, tens of ns, unless the host happens
// to preempt the stepping goroutine right there.
func (l ledger) residualShare() float64 { return float64(l.residual()) / float64(l.wall) }

// tracer collects the stamps, ledgers and spans of a traced phase. It
// attaches its region timing to the team only inside the parallel steps,
// so regions run by the checks (LULESH's restarts) stay out.
type tracer struct {
	base    time.Time
	members []memberSlot
	rec     *telemetry.Recorder
	plain   tracedReducer
	drainer tracedDrainer
	team    *spray.Team
	timing  *par.Timing
	regions int64
	// clockNS is the median time between two back-to-back clock reads,
	// taken off every timed accumulate call.
	clockNS int64

	step               int32
	t0, newEnd, fS, fE int64
	ledgers            []ledger
	spans              []span // structural spans, recorded after each step
}

func newTracer(team *spray.Team, steps int) *tracer {
	n := team.Size()
	tr := &tracer{
		base:    time.Now(),
		members: make([]memberSlot, n),
		rec:     telemetry.NewRecorder("benchmark", n),
		team:    team,
		timing:  par.NewTiming(n),
		ledgers: make([]ledger, 0, steps),
		spans:   make([]span, 0, spanCap),
	}
	for i := range tr.members {
		tr.members[i].rng = uint64(i)*0x9e3779b97f4a7c15 + 1
		tr.members[i].spans = make([]span, 0, spanCap)
	}
	tr.plain.tr = tr
	tr.plain.accs = make([]tracedAcc, n)
	tr.drainer.tracedReducer = &tr.plain
	reads := make([]int64, 1001)
	for i := range reads {
		s := tr.now()
		reads[i] = tr.now() - s
	}
	tr.clockNS = int64(median(reads))
	return tr
}

func (tr *tracer) now() int64 { return int64(time.Since(tr.base)) }

// accumulate books one timed accumulate call of weight calls.
func (tr *tracer) accumulate(m *memberSlot, tid int, k spanKind, s, e, weight int64) {
	m.accNS += (e - s - tr.clockNS) * weight
	tr.callSpan(m, tid, k, s, e)
}

// instrumentable is the counter hook every reducer built by spray.New
// has; spray.Instrument attaches the same recorder type through it.
type instrumentable interface {
	Instrument(rec *telemetry.Recorder)
}

// midDrainer mirrors the core layer's optional mid-region drain hook,
// which RunReduction wires to the chunk boundaries when the reducer it is
// given has it.
type midDrainer interface {
	EnableMidDrain(on bool)
	DrainMid(tid int)
}

// wrap returns r behind the tracing wrapper, attaching the tracer's
// counter recorder to it. The wrapper exposes DrainMid exactly when r
// does, so a keeper's mid-region drain still fires. Wrapping a reducer
// built inside the step also stamps the end of its construction.
func (tr *tracer) wrap(r spray.Reducer[float32]) spray.Reducer[float32] {
	tr.newEnd = tr.now()
	if ir, ok := r.(instrumentable); ok {
		ir.Instrument(tr.rec)
	}
	tr.plain.in = r
	if d, ok := r.(midDrainer); ok {
		tr.drainer.d = d
		return &tr.drainer
	}
	return &tr.plain
}

// beginStep opens traced step number len(ledgers).
func (tr *tracer) beginStep() {
	tr.step = int32(len(tr.ledgers))
	for i := range tr.members {
		m := &tr.members[i]
		m.pS, m.pE, m.dS, m.dE = 0, 0, 0, 0
		m.nextID = 0
	}
	tr.fS, tr.fE = 0, 0
	tr.regions -= tr.team.Regions()
	tr.team.SetTiming(tr.timing)
	tr.t0 = tr.now()
	tr.newEnd = tr.t0
}

// endStep closes the step, books its ledger and structural spans and
// returns its wall time in ns. Steps whose region never ran (a workload
// that does not go through the wrapper) get a wall-only ledger.
func (tr *tracer) endStep() int64 {
	end := tr.now()
	tr.team.SetTiming(nil)
	tr.regions += tr.team.Regions()
	l := ledger{wall: end - tr.t0}
	tr.recordSpan(span{id: stepSpanID(tr.step), start: tr.t0, end: end, tid: -1, kind: spanStep})
	if tr.fE == 0 {
		tr.ledgers = append(tr.ledgers, l)
		return l.wall
	}
	crit, lastDone, first := 0, int64(0), tr.members[0].pS
	for i := range tr.members {
		m := &tr.members[i]
		if m.pS > tr.members[crit].pS {
			crit = i
		}
		lastDone = max(lastDone, m.dE)
		first = min(first, m.pS)
		m.bodyNS += m.dS - m.pE
	}
	c := &tr.members[crit]
	l.new = tr.newEnd - tr.t0
	l.dispatch = c.pS - tr.newEnd
	l.private = c.pE - c.pS
	l.body = c.dS - c.pE
	l.done = c.dE - c.dS
	l.joinWait = lastDone - c.dE
	l.join = tr.fS - lastDone
	l.finalize = tr.fE - tr.fS
	for i := range tr.members {
		l.joinWaitAll += lastDone - tr.members[i].dE
	}
	tr.ledgers = append(tr.ledgers, l)

	sid := stepSpanID(tr.step)
	if l.new > 0 {
		tr.recordSpan(span{id: structID(tr.step, 1), parent: sid, start: tr.t0, end: tr.newEnd, tid: -1, kind: spanNew})
	}
	region := structID(tr.step, 2)
	tr.recordSpan(span{id: region, parent: sid, start: first, end: lastDone, tid: -1, kind: spanRegion})
	for i := range tr.members {
		m := &tr.members[i]
		member := memberSpanID(tr.step, i, 0)
		tid := int16(i)
		tr.recordSpan(span{id: member, parent: region, start: m.pS, end: m.dE, tid: tid, kind: spanMember})
		tr.recordSpan(span{id: memberSpanID(tr.step, i, 1), parent: member, start: m.pS, end: m.pE, tid: tid, kind: spanPrivate})
		tr.recordSpan(span{id: memberSpanID(tr.step, i, 2), parent: member, start: m.pE, end: m.dS, tid: tid, kind: spanChunk})
		tr.recordSpan(span{id: memberSpanID(tr.step, i, 3), parent: member, start: m.dS, end: m.dE, tid: tid, kind: spanDone})
	}
	tr.recordSpan(span{id: structID(tr.step, 3), parent: sid, start: tr.fS, end: tr.fE, tid: -1, kind: spanFinalize})
	return l.wall
}

func (tr *tracer) recordSpan(s span) {
	s.step = tr.step
	if len(tr.spans) < cap(tr.spans) {
		tr.spans = append(tr.spans, s)
	}
}

// callSpan records a timed call of member tid, parented to its chunk span.
func (tr *tracer) callSpan(m *memberSlot, tid int, k spanKind, s, e int64) {
	m.nextID++
	m.record(span{
		id:     int64(1)<<62 | int64(tid)<<48 | int64(tr.step)<<20 | m.nextID,
		parent: memberSpanID(tr.step, tid, 2),
		start:  s, end: e, step: tr.step, tid: int16(tid), kind: k,
	})
}

// writeChrome writes every recorded span as Chrome trace-event JSON
// (complete "X" events; load in ui.perfetto.dev or chrome://tracing).
// Step-level spans sit on tid 0, member m's on tid m+1.
func (tr *tracer) writeChrome(w io.Writer, workload string, pid int) error {
	bw := bufio.NewWriter(w)
	emit := func(s span) {
		fmt.Fprintf(bw, ",\n{\"name\":%q,\"ph\":\"X\",\"pid\":%d,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,"+
			"\"args\":{\"workload\":%q,\"step\":%d,\"id\":%d,\"parent\":%d}}",
			spanNames[s.kind], pid, int(s.tid)+1, float64(s.start)/1e3, float64(s.end-s.start)/1e3,
			workload, s.step, s.id, s.parent)
	}
	fmt.Fprintf(bw, "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,\"args\":{\"name\":%q}}", pid, workload)
	for _, s := range tr.spans {
		emit(s)
	}
	for i := range tr.members {
		for _, s := range tr.members[i].spans {
			emit(s)
		}
	}
	return bw.Flush()
}

// tracedReducer forwards every Reducer call to in, stamping Private and
// FinalizeWith.
type tracedReducer struct {
	in   spray.Reducer[float32]
	tr   *tracer
	accs []tracedAcc
}

func (w *tracedReducer) Private(tid int) spray.Accessor[float32] {
	tr := w.tr
	m := &tr.members[tid]
	m.pS = tr.now()
	in := spray.Bulk(w.in.Private(tid))
	m.pE = tr.now()
	a := &w.accs[tid]
	a.in, a.m, a.tr, a.tid = in, m, tr, tid
	return a
}

func (w *tracedReducer) Finalize() {
	w.tr.fS = w.tr.now()
	w.in.Finalize()
	w.tr.fE = w.tr.now()
}

func (w *tracedReducer) FinalizeWith(t *spray.Team) {
	w.tr.fS = w.tr.now()
	w.in.FinalizeWith(t)
	w.tr.fE = w.tr.now()
}

func (w *tracedReducer) Bytes() int64     { return w.in.Bytes() }
func (w *tracedReducer) PeakBytes() int64 { return w.in.PeakBytes() }
func (w *tracedReducer) Name() string     { return w.in.Name() }
func (w *tracedReducer) Threads() int     { return w.in.Threads() }

// tracedDrainer is tracedReducer for inner reducers that drain inbound
// work at chunk boundaries; it times each DrainMid.
type tracedDrainer struct {
	*tracedReducer
	d midDrainer
}

func (w *tracedDrainer) EnableMidDrain(on bool) { w.d.EnableMidDrain(on) }

func (w *tracedDrainer) DrainMid(tid int) {
	tr := w.tr
	m := &tr.members[tid]
	s := tr.now()
	w.d.DrainMid(tid)
	e := tr.now()
	m.drainNS += e - s
	tr.callSpan(m, tid, spanDrain, s, e)
}

// tracedAcc forwards the accessor calls of one member, counting every
// call and timing the accumulate calls.
type tracedAcc struct {
	in  spray.BulkAccessor[float32]
	m   *memberSlot
	tr  *tracer
	tid int
}

// Computed bytes per update: the float32 value read plus the target's
// read and write, and a scatter's int32 index read on top.
const (
	bytesPerUpdate = 12
	bytesPerIndex  = 4
)

func (a *tracedAcc) Add(i int, v float32) {
	a.m.calls++
	a.m.updates++
	a.in.Add(i, v)
}

func (a *tracedAcc) AddN(base int, vals []float32) {
	m := a.m
	m.calls++
	m.updates += int64(len(vals))
	weight := int64(1)
	if len(vals) < bulkMin {
		if !m.sample() {
			a.in.AddN(base, vals)
			return
		}
		weight = sampleEvery
	}
	s := a.tr.now()
	a.in.AddN(base, vals)
	a.tr.accumulate(m, a.tid, spanAddN, s, a.tr.now(), weight)
}

func (a *tracedAcc) Scatter(idx []int32, vals []float32) {
	m := a.m
	m.calls++
	m.updates += int64(len(idx))
	m.scattered += int64(len(idx))
	weight := int64(1)
	if len(idx) < bulkMin {
		if !m.sample() {
			a.in.Scatter(idx, vals)
			return
		}
		weight = sampleEvery
	}
	s := a.tr.now()
	a.in.Scatter(idx, vals)
	a.tr.accumulate(m, a.tid, spanScatter, s, a.tr.now(), weight)
}

func (a *tracedAcc) Done() {
	m := a.m
	m.dS = a.tr.now()
	a.in.Done()
	m.dE = a.tr.now()
}

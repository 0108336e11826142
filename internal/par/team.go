// Package par is the shared-memory parallel substrate of this repository:
// a small OpenMP-like runtime on top of goroutines. It provides a
// persistent thread team (so repeated parallel regions, as in the LULESH
// time loop, do not pay goroutine creation each iteration), OpenMP-style
// loop schedules (static, static-chunked, dynamic, guided), and a reusable
// barrier. The SPRAY paper's reducers are defined relative to exactly this
// execution model: a region is executed by a fixed team, each member has a
// stable integer id, and the reduction merge happens when the region ends.
//
// Regions are dispatched on the team barrier's generation word: the fork
// advances it and the join is one more barrier generation. Between
// regions a worker spins on the word for up to forkSpin (50 ms) before it
// parks, as OpenMP runtimes keep their threads spinning between regions
// (LLVM libomp for KMP_BLOCKTIME, 200 ms). A worker woken from a channel
// waits for an idle core to steal it, which serialized the first ~70-90 µs
// of every region on a 2-core host; a spinning worker starts within about
// 1 µs. The price is one busy core per worker for up to forkSpin after each
// region; Close stops the workers at once.
package par

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"runtime/trace"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"spray/internal/telemetry"
)

// Team is a fixed-size group of workers that execute parallel regions
// together. A Team is created once and reused across regions; members are
// identified by a thread id (tid) in [0, Size()). The calling goroutine
// acts as member 0, mirroring the OpenMP master thread.
//
// Run publishes the body in fn and forks by advancing the barrier's
// generation; the workers, waiting for that generation, read fn and run
// it. The join is a barrier generation of its own: each worker arrives
// without waiting and goes straight back to wait for the next fork, and
// the master waits for the last arrival, as it would on a WaitGroup.
//
// A team with more members than GOMAXPROCS (read at NewTeam) does not
// spin at all, neither workers at the fork nor the master at the join: a
// spinning member only takes a core from a member that still has work, so
// they park at once, as libgomp throttles its spin when threads outnumber
// CPUs.
type Team struct {
	size     int
	barrier  *Barrier
	fn       func(tid int) // current region body; nil tells the workers to exit
	forkWait time.Duration // workers' spin at the fork: forkSpin, or noSpin when oversubscribed
	joinWait time.Duration // master's spin at the join: barrierSpin only (0), or noSpin when oversubscribed
	closed   bool
	timing   *Timing             // nil = lifecycle timing off (the default)
	rec      *telemetry.Recorder // nil = runtime counters off (the default)
	regions  int64               // regions dispatched

	panicMu  sync.Mutex
	panicVal any // first panic raised by a worker during the current region

	// ParallelFor's region: forFn is the method value of forMember, bound
	// once in NewTeam, and forBody is the loop body it hands chunks to while
	// the region runs, so a ParallelFor region builds no closure.
	forFn   func(tid int)
	forBody func(tid, from, to int)

	chunker Chunker // the one loop hand-out state, reset by Loop
}

// WorkerPanic wraps a panic raised inside a parallel region so the
// re-raise on the caller preserves where the panic actually happened: the
// member's tid, the original panic value, and the goroutine stack captured
// at recover time (re-panicking alone would report the join site only).
type WorkerPanic struct {
	Tid   int    // team member that panicked (0 = the master/caller)
	Value any    // the original panic value
	Stack []byte // debug.Stack() of the panicking goroutine
}

// Error formats the panic with its original stack trace; WorkerPanic
// satisfies error so recovered values can flow through error channels.
func (p *WorkerPanic) Error() string {
	return fmt.Sprintf("par: panic in team member %d: %v\n\noriginal goroutine stack:\n%s",
		p.Tid, p.Value, p.Stack)
}

func (p *WorkerPanic) String() string { return p.Error() }

// Unwrap exposes the original panic value when it was an error.
func (p *WorkerPanic) Unwrap() error {
	if err, ok := p.Value.(error); ok {
		return err
	}
	return nil
}

// wrapPanic captures the current goroutine's stack around a recovered
// panic value. Must be called from inside the deferred recover, while the
// panicking frames are still on the stack. Already-wrapped values (nested
// teams) pass through untouched.
func wrapPanic(tid int, val any) any {
	if wp, ok := val.(*WorkerPanic); ok {
		return wp
	}
	return &WorkerPanic{Tid: tid, Value: val, Stack: debug.Stack()}
}

// NewTeam creates a team of n members. n must be positive; n == 1 yields a
// degenerate team that runs regions on the caller.
func NewTeam(n int) *Team {
	if n < 1 {
		panic(fmt.Sprintf("par: team size must be >= 1, got %d", n))
	}
	t := &Team{size: n, barrier: NewBarrier(n), forkWait: forkSpin}
	t.forFn = t.forMember
	if n > runtime.GOMAXPROCS(0) {
		t.forkWait, t.joinWait = noSpin, noSpin
	}
	for tid := 1; tid < n; tid++ {
		go t.worker(tid)
	}
	return t
}

// worker is the loop of team member tid: wait for the fork of the next
// region, run it, and arrive at its join. The release's generation
// advance orders the master's write of t.fn before the read here, and the
// arrival orders the region's writes before the master's return.
func (t *Team) worker(tid int) {
	// Label the worker for pprof so CPU/goroutine profiles attribute
	// region work to a stable team member id.
	pprof.SetGoroutineLabels(pprof.WithLabels(context.Background(),
		pprof.Labels("par-worker", strconv.Itoa(tid))))
	next := uint64(1) // the generation the first fork advances to
	for {
		t.barrier.await(next, t.forkWait)
		fn := t.fn
		if fn == nil {
			return
		}
		t.runMember(tid, fn)
		gen, _ := t.barrier.arrive()
		next = gen + 2 // the join closes gen; the next fork advances once more
	}
}

// Default returns a team sized to the machine: GOMAXPROCS members.
func Default() *Team { return NewTeam(runtime.GOMAXPROCS(0)) }

// Size returns the number of team members.
func (t *Team) Size() int { return t.size }

// Regions returns the number of parallel regions dispatched on this team
// so far — a monotonically increasing region epoch. Regions are counted
// whether or not instrumentation is attached, so the value is a stable
// clock: the benchmark's traced runs read it to count regions per step.
// Read it between regions (the counter is bumped at dispatch,
// unsynchronized with the members).
func (t *Team) Regions() int64 { return t.regions }

// SetTiming attaches (or, with nil, detaches) a region-lifecycle timing
// accumulator. tm must have been built for this team's size. Not safe to
// call while a region is running.
func (t *Team) SetTiming(tm *Timing) {
	if tm != nil && tm.Threads() != t.size {
		panic(fmt.Sprintf("par: timing built for %d threads attached to a team of %d", tm.Threads(), t.size))
	}
	t.timing = tm
}

// Timing returns the attached timing accumulator, or nil when lifecycle
// timing is off.
func (t *Team) Timing() *Timing { return t.timing }

// SetRecorder attaches (or, with nil, detaches) a telemetry recorder for
// the loop runtime's own counters: every loop handed out by Loop
// (ParallelFor, ScalarReduce, the reduction drivers) reports steal-
// schedule activity — steals, failed probes, stolen iterations, grain
// splits/coalesces, per-member chunks — into its per-thread shards. rec
// must have at least as many shards as the team has members. Not safe to
// call while a region is running.
func (t *Team) SetRecorder(rec *telemetry.Recorder) {
	if rec != nil && rec.Threads() < t.size {
		panic(fmt.Sprintf("par: recorder built for %d threads attached to a team of %d", rec.Threads(), t.size))
	}
	t.rec = rec
}

// Recorder returns the attached runtime-counter recorder, or nil when
// runtime counters are off.
func (t *Team) Recorder() *telemetry.Recorder { return t.rec }

// Loop resets the team's Chunker for the range [lo, hi) under schedule s,
// attaches the team's runtime-counter recorder, and returns it. Every
// loop on the team — ParallelFor, ScalarReduce, the reduction drivers —
// goes through Loop, so the hand-out state is allocated once per team,
// not once per region. The returned Chunker belongs to the team: it is
// valid until the next Loop, so call Loop between regions, once per loop,
// and drive it from the next Run.
func (t *Team) Loop(s Schedule, lo, hi int) *Chunker {
	t.chunker.reset(s, lo, hi, t.size, t.rec)
	return &t.chunker
}

// forMember is member tid's share of a ParallelFor region.
func (t *Team) forMember(tid int) {
	body := t.forBody
	t.chunker.For(tid, func(from, to int) { body(tid, from, to) })
}

// Run executes fn once per team member, concurrently, and returns when all
// members have finished — the analogue of an OpenMP parallel region. The
// caller runs as tid 0. Run must not be called from inside a region on the
// same team (regions do not nest; create an inner Team for nesting).
//
// A panic in any member is caught, the region is still joined (so the
// team stays usable), and the first panic is re-raised on the caller as a
// *WorkerPanic carrying the member's tid, the original value, and the
// goroutine stack captured where the panic happened. A member that panics
// before reaching a Barrier that other members wait on deadlocks the
// region — the same hazard an aborting OpenMP thread poses.
//
// When a Timing is attached (SetTiming) the region's wall time and each
// member's busy time are accumulated; when Go execution tracing is active
// the region becomes a trace task with one trace region per member, so
// `go tool trace` shows the team's fork/join structure directly.
func (t *Team) Run(fn func(tid int)) {
	if t.closed {
		panic("par: Run on closed team")
	}
	tm := t.timing
	run := fn
	var task *trace.Task
	t.regions++
	if traced := trace.IsEnabled(); tm != nil || traced {
		var ctx context.Context = context.Background()
		if traced {
			ctx, task = trace.NewTask(ctx, "par.Run")
		}
		run = instrumentRegion(ctx, fn, tm, traced)
	}
	var start time.Time
	if tm != nil {
		start = time.Now()
	}
	t.fn = run
	t.barrier.release() // fork
	var masterPanic any
	func() {
		defer func() {
			if r := recover(); r != nil {
				masterPanic = wrapPanic(0, r)
			}
		}()
		run(0)
	}()
	if gen, closed := t.barrier.arrive(); !closed { // join
		t.barrier.await(gen+1, t.joinWait)
	}
	t.panicMu.Lock()
	workerPanic := t.panicVal
	t.panicVal = nil
	t.panicMu.Unlock()
	if tm != nil {
		tm.regions.Add(1)
		tm.wallNS.Add(int64(time.Since(start)))
	}
	if task != nil {
		task.End()
	}
	if masterPanic != nil {
		panic(masterPanic)
	}
	if workerPanic != nil {
		panic(workerPanic)
	}
}

// instrumentRegion wraps a region body with per-member busy timing and
// execution-trace regions. The wrapper is only built when timing or Go
// execution tracing is on — the default Run path dispatches fn untouched.
func instrumentRegion(ctx context.Context, fn func(int), tm *Timing, traced bool) func(int) {
	return func(tid int) {
		if traced {
			defer trace.StartRegion(ctx, "par.member").End()
		}
		if tm != nil {
			start := time.Now()
			defer func() { tm.busyNS[tid].Add(int64(time.Since(start))) }()
		}
		fn(tid)
	}
}

// runMember executes one region on a worker, converting panics into a
// recorded value (with the worker's stack attached) so Run can re-raise
// them after the join.
func (t *Team) runMember(tid int, fn func(int)) {
	defer func() {
		if r := recover(); r != nil {
			wrapped := wrapPanic(tid, r)
			t.panicMu.Lock()
			if t.panicVal == nil {
				t.panicVal = wrapped
			}
			t.panicMu.Unlock()
		}
	}()
	fn(tid)
}

// Barrier blocks until every team member currently inside a region has
// called it, the analogue of "#pragma omp barrier". It is only meaningful
// when called by all members from within Run. With a Timing attached, the
// time every member spends waiting here is accumulated as BarrierWait.
func (t *Team) Barrier() {
	if tm := t.timing; tm != nil {
		start := time.Now()
		t.barrier.Wait()
		tm.barrNS.Add(int64(time.Since(start)))
		return
	}
	t.barrier.Wait()
}

// Close shuts down the worker goroutines, including any still spinning
// for the next region. The team must not be used after Close. Closing is
// idempotent.
func (t *Team) Close() {
	if t.closed {
		return
	}
	t.closed = true
	t.fn = nil
	t.barrier.release() // fork an empty region: every worker sees nil and exits
}

// barrierSpin bounds the busy-wait phase of a barrier wait before the
// waiter parks on the condition variable. In-region barriers and the join
// are typically separated by microseconds of loop work, so the closing
// arrival is usually within this window and waiters never pay the
// mutex/futex round trip. Spinning longer here costs more than it saves:
// letting the master spin the fork's budget at the join cut the banded
// transpose product's speed-up over the sequential loop by 9–22% on a
// 2-core host.
const barrierSpin = 256

// forkSpin is how long a worker keeps spinning for the next region before
// it parks. The gap between regions can be several milliseconds of serial
// work (≈11 ms in the mini-LULESH time step, over 5 ms between a
// benchmark's parallel steps), and a parked worker wakes tens of µs late,
// so the budget covers those gaps with margin while staying under
// libomp's 200 ms default.
const forkSpin = 50 * time.Millisecond

// noSpin makes a wait park at once.
const noSpin time.Duration = -1

// Barrier is a reusable cyclic barrier for n participants. Arrival is a
// single atomic increment and the wait is spin-then-park: a waiter first
// spins reading the generation counter (yielding to the scheduler
// periodically) and only falls back to parking on a condition variable
// when the other participants take long to arrive. Compared to the
// classic all-under-mutex design this keeps the common fast path — all
// participants arriving nearly together — entirely lock-free.
type Barrier struct {
	n     int
	count atomic.Int32  // arrivals in the current generation
	gen   atomic.Uint64 // generation number; waiters watch it change
	mu    sync.Mutex    // guards parking only
	cond  *sync.Cond
}

// NewBarrier creates a barrier for n participants; n must be positive.
func NewBarrier(n int) *Barrier {
	if n < 1 {
		panic(fmt.Sprintf("par: barrier size must be >= 1, got %d", n))
	}
	b := &Barrier{n: n}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// Wait blocks until n participants have called Wait for the current
// generation, then releases them all and resets for the next generation.
func (b *Barrier) Wait() {
	if gen, closed := b.arrive(); !closed {
		b.await(gen+1, 0)
	}
}

// arrive counts the caller into the current generation and returns that
// generation; the n-th arrival closes it and advances the word. A caller
// may return without waiting for the close (the team's workers do at the
// join) provided it does not arrive again before the generation closes.
//
// The closing participant resets the arrival count before advancing the
// generation; that is safe because no other participant of this
// generation arrives again until the generation changes.
func (b *Barrier) arrive() (gen uint64, closed bool) {
	gen = b.gen.Load()
	if int(b.count.Add(1)) < b.n {
		return gen, false
	}
	b.count.Store(0)
	b.release()
	return gen, true
}

// release advances the generation and wakes every parked waiter. The
// generation is advanced under the parking mutex so a waiter that
// re-checks it under the same mutex before parking can never miss the
// broadcast.
func (b *Barrier) release() {
	b.mu.Lock()
	b.gen.Add(1)
	b.cond.Broadcast()
	b.mu.Unlock()
}

// await returns once the generation has reached until. It spins for
// barrierSpin iterations and, with spin > 0, keeps spinning until spin has
// elapsed before it parks; with noSpin it parks at once. The spin yields
// every 32 iterations, so other goroutines and the GC still get the
// processor, and reads the clock only at those yields.
func (b *Barrier) await(until uint64, spin time.Duration) {
	var start time.Time
	for i := 1; spin != noSpin; i++ {
		if b.gen.Load() >= until {
			return
		}
		if i%32 != 0 {
			continue
		}
		runtime.Gosched()
		if i < barrierSpin {
			continue
		}
		if spin == 0 {
			break
		}
		if start.IsZero() {
			start = time.Now()
		} else if time.Since(start) >= spin {
			break
		}
	}
	b.mu.Lock()
	for b.gen.Load() < until {
		b.cond.Wait()
	}
	b.mu.Unlock()
}

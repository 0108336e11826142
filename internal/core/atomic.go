package core

import (
	"spray/internal/num"
	"spray/internal/par"
	"spray/internal/telemetry"
)

// Atomic is the SPRAY AtomicReduction: every Add updates the original
// storage location with an atomic compare-and-swap loop over the float's
// bit pattern — the lowering of "#pragma omp atomic update" on hardware
// without native floating-point fetch-and-add. There is no privatized
// memory, no init work and no fix-up; the cost is a per-update latency tax
// and potential contention on shared cache lines.
type Atomic[T num.Float] struct {
	out     []T
	privs   []atomicPrivate[T]
	threads int
	tel     *telemetry.Recorder
}

// Instrument attaches (nil: detaches) the telemetry recorder. Instrumented
// accessors switch to the retry-counting CAS variants so contention shows
// up as the cas-retries counter.
func (a *Atomic[T]) Instrument(rec *telemetry.Recorder) { a.tel = rec }

// NewAtomic wraps out for a team of the given size.
func NewAtomic[T num.Float](out []T, threads int) *Atomic[T] {
	validate(out, threads)
	return &Atomic[T]{out: out, privs: make([]atomicPrivate[T], threads), threads: threads}
}

type atomicPrivate[T num.Float] struct {
	out []T
	tel *telemetry.Shard
}

func (p *atomicPrivate[T]) Add(i int, v T) {
	if p.tel == nil {
		num.AtomicAdd(p.out, i, v)
		return
	}
	p.tel.Inc(telemetry.Updates)
	p.tel.Add(telemetry.CASRetries, num.AtomicAddRetries(p.out, i, v))
}

// AddN keeps per-element CAS (two threads may still race on the same
// location through overlapping runs) but hoists the slice bounds check
// out of the loop.
func (p *atomicPrivate[T]) AddN(base int, vals []T) {
	dst := p.out[base : base+len(vals)]
	if p.tel == nil {
		for j, v := range vals {
			num.AtomicAdd(dst, j, v)
		}
		return
	}
	p.tel.IncRun(telemetry.AddNRuns, len(vals))
	retries := 0
	for j, v := range vals {
		retries += num.AtomicAddRetries(dst, j, v)
	}
	p.tel.Add(telemetry.CASRetries, retries)
}

// Scatter applies a gathered batch with per-element CAS.
func (p *atomicPrivate[T]) Scatter(idx []int32, vals []T) {
	out := p.out
	if p.tel == nil {
		for j, i := range idx {
			num.AtomicAdd(out, int(i), vals[j])
		}
		return
	}
	p.tel.IncRun(telemetry.ScatterRuns, len(idx))
	retries := 0
	for j, i := range idx {
		retries += num.AtomicAddRetries(out, int(i), vals[j])
	}
	p.tel.Add(telemetry.CASRetries, retries)
}

func (p *atomicPrivate[T]) Done() {}

// Private returns an accessor that updates the shared array directly.
func (a *Atomic[T]) Private(tid int) Private[T] {
	a.privs[tid] = atomicPrivate[T]{out: a.out, tel: a.tel.Shard(tid)}
	return &a.privs[tid]
}

// Finalize is a no-op: all updates landed in the original array already.
func (a *Atomic[T]) Finalize() {}

// FinalizeWith is a no-op like Finalize; the team is not needed.
func (a *Atomic[T]) FinalizeWith(*par.Team) {}

func (a *Atomic[T]) Bytes() int64     { return 0 }
func (a *Atomic[T]) PeakBytes() int64 { return 0 }
func (a *Atomic[T]) Name() string     { return "atomic" }
func (a *Atomic[T]) Threads() int     { return a.threads }

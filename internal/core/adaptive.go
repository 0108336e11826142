package core

import (
	"fmt"
	"math/bits"
	"unsafe"

	"spray/internal/hotspot"
	"spray/internal/memtrack"
	"spray/internal/num"
	"spray/internal/par"
	"spray/internal/telemetry"
)

// adaptiveThresholdShift sets the escalation threshold relative to the
// block size: a thread privatizes a block after touching it more than
// blockSize >> adaptiveThresholdShift times. At shift 2, a block that has
// absorbed a quarter of its size in atomic updates is considered hot —
// frequent enough that privatized accumulation amortizes the allocation
// and the merge-back.
const adaptiveThresholdShift = 2

// Adaptive is the "generic reducer object" the paper's outlook asks for:
// a strategy that relieves the user of choosing. It starts in the
// zero-memory atomic regime and privatizes individual blocks per thread
// once they prove hot, converging toward block-private behavior exactly
// where the access pattern warrants it:
//
//   - scattered, low-reuse updates (the atomic sweet spot) never escalate
//     and pay no memory;
//   - dense or clustered updates (the block sweet spot) quickly move into
//     private blocks and stop touching shared cache lines.
//
// Correctness is unconditional because both regimes accumulate: early
// updates of a block land in the shared array atomically, later ones in
// the private copy, and Finalize folds the copies back.
type Adaptive[T num.Float] struct {
	out     []T
	threads int
	bsize   int
	shift   uint
	mask    int
	nblocks int
	privs   []adaptivePrivate[T]
	mem     memtrack.Counter
	tel     *telemetry.Recorder
}

// Instrument attaches (nil: detaches) the telemetry recorder. Instrumented
// accessors count atomic-regime CAS retries and regime escalations, so the
// counters show where the strategy converged (escalations vs cas-retries
// mirrors the hot/cold split of the access pattern).
func (a *Adaptive[T]) Instrument(rec *telemetry.Recorder) { a.tel = rec }

// NewAdaptive wraps out for a team of the given size. blockSize must be a
// positive power of two.
func NewAdaptive[T num.Float](out []T, threads, blockSize int) *Adaptive[T] {
	validate(out, threads)
	if blockSize < 1 || blockSize&(blockSize-1) != 0 {
		panic(fmt.Sprintf("core: adaptive block size must be a positive power of two, got %d", blockSize))
	}
	a := &Adaptive[T]{
		out:     out,
		threads: threads,
		bsize:   blockSize,
		shift:   uint(bits.TrailingZeros(uint(blockSize))),
		mask:    blockSize - 1,
		nblocks: (len(out) + blockSize - 1) / blockSize,
		privs:   make([]adaptivePrivate[T], threads),
	}
	return a
}

type adaptivePrivate[T num.Float] struct {
	parent *Adaptive[T]
	touch  []uint32 // per block: atomic-update count until escalation
	view   [][]T    // per block: nil = atomic regime, else private copy
	owned  []privBlock[T]
	tel    *telemetry.Shard
	hot    *hotspot.Shard
}

// Add updates through the current regime of the target block, escalating
// to a private copy when the block crosses the hotness threshold.
func (p *adaptivePrivate[T]) Add(i int, v T) {
	p.tel.Inc(telemetry.Updates)
	b := i >> p.parent.shift
	if view := p.view[b]; view != nil {
		view[i&p.parent.mask] += v
		return
	}
	if p.tel == nil {
		num.AtomicAdd(p.parent.out, i, v)
	} else {
		r := num.AtomicAddRetries(p.parent.out, i, v)
		p.tel.Add(telemetry.CASRetries, r)
		if r > 0 {
			p.hot.RecordW(hotspot.CASRetry, i, uint64(r))
		}
	}
	p.touch[b]++
	if int(p.touch[b]) > p.parent.bsize>>adaptiveThresholdShift {
		p.escalate(int(b))
	}
}

// AddN accumulates a contiguous run block by block: escalated blocks take
// a plain loop over the private copy (block resolved once per run),
// atomic-regime blocks that stay safely below the hotness threshold pay
// per-element CAS with the touch counter bumped once for the whole
// segment. A segment that would cross the threshold mid-way degrades to
// per-element Add so escalation fires at exactly the same element as in
// the element-wise path — keeping bulk bitwise-equivalent to Add.
func (p *adaptivePrivate[T]) AddN(base int, vals []T) {
	p.tel.IncRun(telemetry.AddNRuns, len(vals))
	parent := p.parent
	bsize, mask, shift := parent.bsize, parent.mask, parent.shift
	thresh := uint32(bsize >> adaptiveThresholdShift)
	for len(vals) > 0 {
		b := base >> shift
		off := base & mask
		n := bsize - off
		if n > len(vals) {
			n = len(vals)
		}
		if view := p.view[b]; view != nil {
			dst := view[off : off+n]
			for j, v := range vals[:n] {
				dst[j] += v
			}
		} else if p.touch[b]+uint32(n) <= thresh {
			out := parent.out[base : base+n]
			if p.tel == nil {
				for j, v := range vals[:n] {
					num.AtomicAdd(out, j, v)
				}
			} else {
				retries := 0
				for j, v := range vals[:n] {
					r := num.AtomicAddRetries(out, j, v)
					retries += r
					if r > 0 {
						p.hot.RecordW(hotspot.CASRetry, base+j, uint64(r))
					}
				}
				p.tel.Add(telemetry.CASRetries, retries)
			}
			p.touch[b] += uint32(n)
		} else {
			for j, v := range vals[:n] {
				p.Add(base+j, v)
			}
		}
		base += n
		vals = vals[n:]
	}
}

// Scatter accumulates a gathered batch; each element goes through the
// regular regime dispatch so escalation behaves exactly as with Add.
// (Instrumented, the delegated elements also count as updates — the
// counters expose that this bulk path degrades to element-wise work.)
func (p *adaptivePrivate[T]) Scatter(idx []int32, vals []T) {
	p.tel.IncRun(telemetry.ScatterRuns, len(idx))
	for j, i := range idx {
		p.Add(int(i), vals[j])
	}
}

// escalate privatizes block b for this thread.
func (p *adaptivePrivate[T]) escalate(b int) {
	p.tel.Inc(telemetry.Escalations)
	parent := p.parent
	base := b << parent.shift
	end := base + parent.bsize
	if end > len(parent.out) {
		end = len(parent.out)
	}
	var zero T
	buf := make([]T, end-base)
	parent.mem.Alloc(memtrack.SliceBytes(len(buf), unsafe.Sizeof(zero)))
	p.owned = append(p.owned, privBlock[T]{block: b, buf: buf})
	p.view[b] = buf
}

func (p *adaptivePrivate[T]) Done() {}

// Private returns the accessor for thread tid, allocating (or resetting)
// its per-block bookkeeping tables.
func (a *Adaptive[T]) Private(tid int) Private[T] {
	p := &a.privs[tid]
	p.parent = a
	p.tel = a.tel.Shard(tid)
	p.hot = p.tel.Hot()
	if p.touch == nil {
		p.touch = make([]uint32, a.nblocks)
		p.view = make([][]T, a.nblocks)
		a.mem.Alloc(memtrack.SliceBytes(a.nblocks, 4) +
			memtrack.SliceBytes(a.nblocks, unsafe.Sizeof([]T(nil))))
	} else {
		clear(p.touch)
		clear(p.view)
	}
	p.owned = p.owned[:0]
	return p
}

// FinalizeWith delegates to the serial Finalize: escalated blocks are
// typically few (that is the point of the strategy), so the merge is not
// worth a parallel region.
func (a *Adaptive[T]) FinalizeWith(*par.Team) { a.Finalize() }

// Finalize folds every escalated private block back into the array.
func (a *Adaptive[T]) Finalize() {
	var zero T
	for t := range a.privs {
		p := &a.privs[t]
		for _, pb := range p.owned {
			base := pb.block << a.shift
			for j, v := range pb.buf {
				a.out[base+j] += v
			}
			a.mem.Free(memtrack.SliceBytes(len(pb.buf), unsafe.Sizeof(zero)))
		}
		p.owned = p.owned[:0]
	}
}

// EscalatedBlocks reports how many (thread, block) pairs left the atomic
// regime in the last region — observability for tests and tuning.
func (a *Adaptive[T]) EscalatedBlocks() int {
	n := 0
	for t := range a.privs {
		for _, v := range a.privs[t].view {
			if v != nil {
				n++
			}
		}
	}
	return n
}

func (a *Adaptive[T]) Bytes() int64     { return a.mem.Bytes() }
func (a *Adaptive[T]) PeakBytes() int64 { return a.mem.Peak() }
func (a *Adaptive[T]) Name() string     { return fmt.Sprintf("auto-%d", a.bsize) }
func (a *Adaptive[T]) Threads() int     { return a.threads }

package core

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"spray/internal/hotspot"
	"spray/internal/memtrack"
	"spray/internal/num"
	"spray/internal/par"
	"spray/internal/telemetry"
)

// BlockMode selects among the three BlockReduction flavors in the paper.
type BlockMode int

const (
	// BlockPrivate privatizes blocks on demand for every thread: the
	// first touch of a block allocates a zeroed private copy of that
	// block only. Summation order matches the dense strategy; the only
	// difference is that untouched blocks are never materialized.
	BlockPrivate BlockMode = iota
	// BlockLock lets the first thread to touch a block claim ownership
	// of the block *inside the original array* under a lock (the
	// OpenMP-locks variant in the paper); later threads touching the
	// same block fall back to private copies.
	BlockLock
	// BlockCAS is BlockLock with lock-free claiming via a single
	// compare-and-swap on the block's owner word.
	BlockCAS
)

func (m BlockMode) String() string {
	switch m {
	case BlockPrivate:
		return "block-private"
	case BlockLock:
		return "block-lock"
	case BlockCAS:
		return "block-cas"
	default:
		return fmt.Sprintf("BlockMode(%d)", int(m))
	}
}

const freeOwner = int32(-1)

// Block is the SPRAY BlockReduction: the array is divided into
// statically sized blocks that are privatized (or claimed) individually on
// demand. Private (the paper's `init`) allocates only the per-thread
// block-pointer table; block storage appears lazily on first touch.
// Finalize merges fallback blocks elementwise and releases ownership.
//
// Fallback blocks freed by the fix-up are kept on a per-thread free list
// and reused by later regions (re-zeroed), so a time loop driving the
// same reducer performs zero steady-state block allocations. Pooled
// blocks stay charged to Bytes until the reducer is garbage.
//
// The block size is the hyperparameter the paper sweeps in Figure 13: it
// trades the number of block allocations against wasted work on unused
// elements inside touched blocks. Block sizes must be powers of two so the
// per-update block lookup is a shift and the intra-block offset a mask.
type Block[T num.Float] struct {
	out     []T
	threads int
	bsize   int
	shift   uint
	nblocks int
	mode    BlockMode

	owner []atomic.Int32 // lock & CAS modes: owning tid per block, -1 free
	locks []sync.Mutex   // lock mode only
	privs []blockPrivate[T]
	mem   memtrack.Counter
	tel   *telemetry.Recorder
}

// Instrument attaches (nil: detaches) the telemetry recorder. Instrumented
// accessors additionally count block claims, claim-CAS losses, fallback
// privatizations and pool reuses in acquire, and time every block
// resolution into the claim-latency histogram.
func (bl *Block[T]) Instrument(rec *telemetry.Recorder) { bl.tel = rec }

// NewBlock wraps out for a team of the given size. blockSize must be a
// positive power of two.
func NewBlock[T num.Float](out []T, threads, blockSize int, mode BlockMode) *Block[T] {
	validate(out, threads)
	validateIndex32(len(out))
	if blockSize < 1 || blockSize&(blockSize-1) != 0 {
		panic(fmt.Sprintf("core: block size must be a positive power of two, got %d", blockSize))
	}
	b := &Block[T]{
		out:     out,
		threads: threads,
		bsize:   blockSize,
		shift:   uint(bits.TrailingZeros(uint(blockSize))),
		nblocks: (len(out) + blockSize - 1) / blockSize,
		mode:    mode,
		privs:   make([]blockPrivate[T], threads),
	}
	if mode == BlockLock || mode == BlockCAS {
		b.owner = make([]atomic.Int32, b.nblocks)
		for i := range b.owner {
			b.owner[i].Store(freeOwner)
		}
		if mode == BlockLock {
			b.locks = make([]sync.Mutex, b.nblocks)
		}
	}
	return b
}

// privBlock records one privatized fallback block for the fix-up merge.
type privBlock[T num.Float] struct {
	block int
	buf   []T
}

type blockPrivate[T num.Float] struct {
	parent *Block[T]
	tid    int32
	shift  uint  // the parent's, copied so updates never load it through parent
	view   [][]T // per block: nil until touched, then direct or private storage
	// Add's one-block window: lastView is the resolved storage of the
	// block starting at element lastBase. Private resets it, because the
	// view may be a block of out whose ownership Finalize released.
	lastBase int
	lastView []T
	fallbk   []privBlock[T]
	pool     [][]T // full-size fallback buffers recycled from earlier regions
	tel      *telemetry.Shard
	hot      *hotspot.Shard
}

// Add accumulates into the block view. An index inside the window costs
// one unsigned range compare, which is also the bounds check; any other
// index goes through addMiss.
func (p *blockPrivate[T]) Add(i int, v T) {
	p.tel.Inc(telemetry.Updates)
	if k := i - p.lastBase; uint(k) < uint(len(p.lastView)) {
		p.lastView[k] += v
		return
	}
	p.addMiss(i, v)
}

// addMiss resolves i's block (first touch claims or privatizes it) and
// moves Add's window onto it.
func (p *blockPrivate[T]) addMiss(i int, v T) {
	b := i >> p.shift
	view := p.view[b]
	if view == nil {
		view = p.acquire(b)
	}
	p.lastBase = b << p.shift
	p.lastView = view
	view[i-p.lastBase] += v
}

// AddN accumulates a contiguous run, resolving each spanned block once
// and applying the per-block segment as a plain loop — the per-element
// shift/mask/nil-check of Add is paid once per block instead of once per
// element.
func (p *blockPrivate[T]) AddN(base int, vals []T) {
	p.tel.IncRun(telemetry.AddNRuns, len(vals))
	shift := p.shift
	bsize := 1 << shift
	mask := bsize - 1
	for len(vals) > 0 {
		b := base >> shift
		off := base & mask
		n := bsize - off
		if n > len(vals) {
			n = len(vals)
		}
		view := p.view[b]
		if view == nil {
			view = p.acquire(b)
		}
		addInto(view[off:off+n], vals)
		base += n
		vals = vals[n:]
	}
}

// Scatter accumulates a gathered batch as a walk over runs: it resolves
// the block of the run's first index once, then applies every following
// index that stays inside that block's view with one unsigned range
// compare (which is also the bounds check). An index outside the view
// starts the next run, which may re-enter an earlier block. CSR rows and
// element connectivity are block-local in practice, so runs are long.
func (p *blockPrivate[T]) Scatter(idx []int32, vals []T) {
	p.tel.IncRun(telemetry.ScatterRuns, len(idx))
	vals = vals[:len(idx)]
	shift := p.shift
	for j := 0; j < len(idx); {
		i := int(idx[j])
		b := i >> shift
		view := p.view[b]
		if view == nil {
			view = p.acquire(b)
		}
		base := b << shift
		view[i-base] += vals[j] // checked: panics on an index past len(out)
		for j++; j < len(idx); j++ {
			k := int(idx[j]) - base
			if uint(k) >= uint(len(view)) {
				break
			}
			view[k] += vals[j]
		}
	}
}

// acquire resolves storage for block b: claim it in the original array
// when the mode allows and the block is unowned, otherwise reuse a pooled
// fallback buffer (or allocate one on first use). Instrumented accessors
// time every resolution into the claim-latency histogram (acquisition
// happens at most once per block per thread per region, so no sampling
// decimation is needed).
func (p *blockPrivate[T]) acquire(b int) []T {
	if p.tel != nil {
		start := time.Now()
		view := p.resolve(b)
		p.tel.Observe(telemetry.ClaimLatency, time.Since(start))
		return view
	}
	return p.resolve(b)
}

func (p *blockPrivate[T]) resolve(b int) []T {
	parent := p.parent
	base := b << parent.shift
	end := base + parent.bsize
	if end > len(parent.out) {
		end = len(parent.out)
	}
	var view []T
	switch parent.mode {
	case BlockCAS:
		if parent.owner[b].CompareAndSwap(freeOwner, p.tid) {
			view = parent.out[base:end]
			p.tel.Inc(telemetry.BlockClaims)
		} else {
			p.tel.Inc(telemetry.CASRetries) // lost the claim race (or late arrival)
		}
	case BlockLock:
		parent.locks[b].Lock()
		if parent.owner[b].Load() == freeOwner {
			parent.owner[b].Store(p.tid)
			view = parent.out[base:end]
			p.tel.Inc(telemetry.BlockClaims)
		}
		parent.locks[b].Unlock()
	}
	if view == nil { // BlockPrivate mode, or the block is owned elsewhere
		p.tel.Inc(telemetry.BlockFallbacks)
		if parent.mode != BlockPrivate {
			// Contended claim (lost CAS race or lock found an owner):
			// attribute one contention event to the block's base line.
			p.hot.Record(hotspot.BlockContention, base)
		}
		need := end - base
		if n := len(p.pool); n > 0 {
			view = p.pool[n-1][:need] // pooled buffers have cap >= bsize
			p.pool = p.pool[:n-1]
			clear(view)
			p.tel.Inc(telemetry.PoolReuses)
		} else {
			var zero T
			view = make([]T, need)
			p.parent.mem.Alloc(memtrack.SliceBytes(need, unsafe.Sizeof(zero)))
		}
		p.fallbk = append(p.fallbk, privBlock[T]{block: b, buf: view})
	}
	p.view[b] = view
	return view
}

func (p *blockPrivate[T]) Done() {}

// Private allocates the thread's block-pointer table — the only init-time
// cost of the block strategies.
func (bl *Block[T]) Private(tid int) Private[T] {
	p := &bl.privs[tid]
	if p.view == nil {
		p.view = make([][]T, bl.nblocks)
		bl.mem.Alloc(memtrack.SliceBytes(bl.nblocks, unsafe.Sizeof([]T(nil))))
	} else {
		clear(p.view)
	}
	p.parent = bl
	p.tid = int32(tid)
	p.shift = bl.shift
	p.lastBase, p.lastView = 0, nil
	p.tel = bl.tel.Shard(tid)
	p.hot = p.tel.Hot()
	p.fallbk = p.fallbk[:0]
	return p
}

// Finalize merges all privatized fallback blocks into the original array
// and releases block ownership for the next region. Directly owned blocks
// already hold their contributions.
func (bl *Block[T]) Finalize() {
	for t := range bl.privs {
		p := &bl.privs[t]
		for _, fb := range p.fallbk {
			base := fb.block << bl.shift
			addInto(bl.out[base:base+len(fb.buf)], fb.buf)
		}
		bl.recycle(p)
	}
	bl.resetOwners()
}

// FinalizeWith merges the fallback blocks with the team: member m merges
// every fallback block whose block index hashes to m, so two threads'
// private copies of the same block are combined by one member and output
// ranges stay disjoint — the same pattern Keeper.FinalizeWith uses for
// its owner ranges.
func (bl *Block[T]) FinalizeWith(t *par.Team) {
	size := t.Size()
	if size == 1 {
		bl.Finalize()
		return
	}
	tr := t.Tracer()
	t.Run(func(tid int) {
		if tr != nil {
			tr.Begin(tid, telemetry.SpanFinalize, 0, 0)
			defer tr.End(tid, telemetry.SpanFinalize)
		}
		for p := range bl.privs {
			for _, fb := range bl.privs[p].fallbk {
				if fb.block%size != tid {
					continue
				}
				base := fb.block << bl.shift
				addInto(bl.out[base:base+len(fb.buf)], fb.buf)
			}
		}
	})
	for t := range bl.privs {
		bl.recycle(&bl.privs[t])
	}
	bl.resetOwners()
}

// recycle returns p's merged fallback buffers to its free list. Only
// full-size blocks are pooled (the array's partial tail block, if any, is
// freed) so every pooled buffer fits any future block.
func (bl *Block[T]) recycle(p *blockPrivate[T]) {
	var zero T
	for _, fb := range p.fallbk {
		if cap(fb.buf) >= bl.bsize {
			p.pool = append(p.pool, fb.buf)
		} else {
			bl.mem.Free(memtrack.SliceBytes(len(fb.buf), unsafe.Sizeof(zero)))
		}
	}
	p.fallbk = p.fallbk[:0]
}

func (bl *Block[T]) resetOwners() {
	for i := range bl.owner {
		bl.owner[i].Store(freeOwner)
	}
}

func (bl *Block[T]) Bytes() int64     { return bl.mem.Bytes() }
func (bl *Block[T]) PeakBytes() int64 { return bl.mem.Peak() }
func (bl *Block[T]) Name() string     { return fmt.Sprintf("%s-%d", bl.mode, bl.bsize) }
func (bl *Block[T]) Threads() int     { return bl.threads }

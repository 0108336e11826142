package core

import (
	"sync/atomic"
	"unsafe"

	"spray/internal/memtrack"
	"spray/internal/num"
	"spray/internal/par"
	"spray/internal/telemetry"
)

// keeperMailboxFlush is the foreign-queue length at which a thread stops
// letting the queue grow and publishes its contents to the owner's
// mailbox instead. 1024 entries (12 KiB of float64 requests) is large
// enough to amortize the publish CAS and the owner's drain dispatch, and
// small enough that peak queue memory stays bounded by
// threads² × keeperMailboxFlush entries instead of the full region's
// foreign traffic.
const keeperMailboxFlush = 1024

// parcel is one published batch of foreign update requests: a
// singly-linked node in both the owner's inbound mailbox and the
// producer's recycling stack. The producer stamps `from` with its tid so
// the consumed parcel finds its way back to the producer's pool.
type parcel[T num.Float] struct {
	next *parcel[T]
	from int32
	idx  []int32
	vals []T
}

// mailbox is one owner's inbound parcel stack: a Treiber push (producers,
// any thread) against a Swap(nil) take-all (the owner). Padded so two
// owners' heads never share a cache line.
type mailbox[T num.Float] struct {
	head atomic.Pointer[parcel[T]]
	_    [56]byte
}

// Keeper is the SPRAY KeeperReduction: ownership of the reduction
// locations is distributed statically across threads in contiguous ranges.
// A thread updates locations it owns non-atomically in the original
// storage; updates to foreign locations become "update requests" enqueued
// with the owner (index + value pairs). At Finalize all requests are
// applied — concurrently when a team is supplied, since each owner's range
// is disjoint. The strategy excels when the indices a thread updates
// mostly coincide with its static ownership range (e.g. the near one-to-one
// loop-counter-to-location mapping of the convolution back-propagation).
//
// Memory accounting is capacity-based: queue storage grows in Add (and
// the bulk paths) and is retained across regions for reuse, so Bytes
// reports the capacity the reducer actually holds — including after
// Finalize — and PeakBytes no longer under-reports once queues persist
// past their first region.
type Keeper[T num.Float] struct {
	out     []T
	threads int
	chunk   int // ceil(len(out)/threads); owner(i) = i/chunk
	privs   []keeperPrivate[T]
	mail    []mailbox[T] // per owner: inbound parcels for the mid-region drain
	// midDrain gates mailbox publication. The run harness sets it (between
	// regions) when it wires DrainMid to the chunk-boundary hook; with it
	// off, foreign queues grow until Finalize exactly as before.
	midDrain bool
	mem      memtrack.Counter
	tel      *telemetry.Recorder
}

// Instrument attaches (nil: detaches) the telemetry recorder. Instrumented
// accessors split updates into keeper-owned (direct writes into the static
// ownership range) and keeper-foreign (enqueued update requests); the
// fix-up counts drained requests against the destination owner's shard.
func (k *Keeper[T]) Instrument(rec *telemetry.Recorder) { k.tel = rec }

// NewKeeper wraps out for a team of the given size. Arrays longer than
// MaxInt32 are rejected: the update-request queues store int32 indices.
func NewKeeper[T num.Float](out []T, threads int) *Keeper[T] {
	validate(out, threads)
	validateIndex32(len(out))
	chunk := (len(out) + threads - 1) / threads
	if chunk < 1 {
		chunk = 1
	}
	k := &Keeper[T]{out: out, threads: threads, chunk: chunk}
	k.mail = make([]mailbox[T], threads)
	k.privs = make([]keeperPrivate[T], threads)
	for t := range k.privs {
		k.privs[t] = keeperPrivate[T]{
			parent: k,
			out:    out,
			chunk:  chunk,
			tid:    t,
			qIdx:   make([][]int32, threads),
			qVal:   make([][]T, threads),
		}
	}
	return k
}

// Owner returns the thread that owns location i.
func (k *Keeper[T]) Owner(i int) int { return i / k.chunk }

type keeperPrivate[T num.Float] struct {
	parent *Keeper[T]
	out    []T // cached from parent for the hot path
	chunk  int
	tid    int
	qIdx   [][]int32 // per destination owner
	qVal   [][]T
	// charged is the queue capacity in bytes this private has reported
	// to the parent counter; growth is charged as it happens.
	charged int64
	tel     *telemetry.Shard
	// returns receives parcels the owners have finished applying (Treiber
	// push by any consumer); free is the local pool they drain into. All
	// parcel capacity is retained and stays charged to the parent counter.
	returns atomic.Pointer[parcel[T]]
	free    []*parcel[T]
}

// Add writes owned locations directly and enqueues an update request with
// the owner otherwise.
func (p *keeperPrivate[T]) Add(i int, v T) {
	p.tel.Inc(telemetry.Updates)
	o := i / p.chunk
	if o == p.tid {
		p.tel.Inc(telemetry.KeeperOwned)
		p.out[i] += v
		return
	}
	p.tel.Inc(telemetry.KeeperForeign)
	qi, qv := p.qIdx[o], p.qVal[o]
	ci, cv := cap(qi), cap(qv)
	qi = append(qi, int32(i))
	qv = append(qv, v)
	if cap(qi) != ci || cap(qv) != cv {
		p.grew(cap(qi)-ci, cap(qv)-cv)
	}
	p.qIdx[o], p.qVal[o] = qi, qv
	p.maybePublish(o)
}

// AddN splits a contiguous run at the static ownership boundaries: the
// thread's own segment is applied as one plain loop, and each foreign
// segment is appended to the owner's queue in bulk.
func (p *keeperPrivate[T]) AddN(base int, vals []T) {
	p.tel.IncRun(telemetry.AddNRuns, len(vals))
	for len(vals) > 0 {
		o := base / p.chunk
		n := (o+1)*p.chunk - base
		if n > len(vals) {
			n = len(vals)
		}
		if o == p.tid {
			p.tel.Add(telemetry.KeeperOwned, n)
			addInto(p.out[base:base+n], vals)
		} else {
			p.tel.Add(telemetry.KeeperForeign, n)
			qi, qv := p.qIdx[o], p.qVal[o]
			ci, cv := cap(qi), cap(qv)
			for j := 0; j < n; j++ {
				qi = append(qi, int32(base+j))
			}
			qv = append(qv, vals[:n]...)
			if cap(qi) != ci || cap(qv) != cv {
				p.grew(cap(qi)-ci, cap(qv)-cv)
			}
			p.qIdx[o], p.qVal[o] = qi, qv
			p.maybePublish(o)
		}
		base += n
		vals = vals[n:]
	}
}

// Scatter partitions a gathered batch by owner in one pass: maximal runs
// of consecutive entries with the same owner are applied directly (own
// range) or appended to the owner's queue as whole sub-slices.
func (p *keeperPrivate[T]) Scatter(idx []int32, vals []T) {
	p.tel.IncRun(telemetry.ScatterRuns, len(idx))
	chunk, tid := p.chunk, p.tid
	for j := 0; j < len(idx); {
		o := int(idx[j]) / chunk
		k := j + 1
		for k < len(idx) && int(idx[k])/chunk == o {
			k++
		}
		if o == tid {
			p.tel.Add(telemetry.KeeperOwned, k-j)
			out := p.out
			for m := j; m < k; m++ {
				out[idx[m]] += vals[m]
			}
		} else {
			p.tel.Add(telemetry.KeeperForeign, k-j)
			p.enqueue(o, idx[j:k], vals[j:k])
		}
		j = k
	}
}

// enqueue appends a foreign batch to owner o's queue (the slices are
// copied; callers may reuse them) and publishes the queue to the owner's
// mailbox once it passes the publication threshold.
func (p *keeperPrivate[T]) enqueue(o int, idx []int32, vals []T) {
	qi, qv := p.qIdx[o], p.qVal[o]
	ci, cv := cap(qi), cap(qv)
	qi = append(qi, idx...)
	qv = append(qv, vals...)
	if cap(qi) != ci || cap(qv) != cv {
		p.grew(cap(qi)-ci, cap(qv)-cv)
	}
	p.qIdx[o], p.qVal[o] = qi, qv
	p.maybePublish(o)
}

// maybePublish moves owner o's queue contents into a mailbox parcel when
// mid-region draining is enabled and the queue has reached the
// publication threshold.
func (p *keeperPrivate[T]) maybePublish(o int) {
	if p.parent.midDrain && len(p.qIdx[o]) >= keeperMailboxFlush {
		p.publish(o)
	}
}

// publish copies owner o's pending requests into a recycled (or fresh)
// parcel, pushes it onto o's mailbox, and truncates the queue in place —
// queue capacity is untouched, so the Done reconciliation stays exact.
// Parcel capacity is charged to the parent counter when it grows and is
// retained forever through the returns/free recycling loop (the same
// capacity-retention rule the queues follow).
func (p *keeperPrivate[T]) publish(o int) {
	par := p.takeParcel()
	ci, cv := cap(par.idx), cap(par.vals)
	par.idx = append(par.idx[:0], p.qIdx[o]...)
	par.vals = append(par.vals[:0], p.qVal[o]...)
	if cap(par.idx) != ci || cap(par.vals) != cv {
		var zero T
		p.parent.mem.Alloc(int64(cap(par.idx)-ci)*4 +
			int64(cap(par.vals)-cv)*int64(unsafe.Sizeof(zero)))
	}
	par.from = int32(p.tid)
	p.qIdx[o] = p.qIdx[o][:0]
	p.qVal[o] = p.qVal[o][:0]
	mb := &p.parent.mail[o]
	for {
		old := mb.head.Load()
		par.next = old
		if mb.head.CompareAndSwap(old, par) {
			return
		}
	}
}

// takeParcel returns an empty parcel: from the local pool, else from the
// parcels owners have pushed back on the returns stack, else fresh.
func (p *keeperPrivate[T]) takeParcel() *parcel[T] {
	if n := len(p.free); n > 0 {
		par := p.free[n-1]
		p.free = p.free[:n-1]
		return par
	}
	if head := p.returns.Swap(nil); head != nil {
		for par := head; par != nil; par = par.next {
			p.free = append(p.free, par)
		}
		n := len(p.free)
		par := p.free[n-1]
		p.free = p.free[:n-1]
		return par
	}
	return &parcel[T]{}
}

// grew charges a queue capacity increase (in elements) to the parent
// counter the moment the backing arrays are reallocated.
func (p *keeperPrivate[T]) grew(dIdx, dVal int) {
	var zero T
	d := int64(dIdx)*4 + int64(dVal)*int64(unsafe.Sizeof(zero))
	p.charged += d
	p.parent.mem.Alloc(d)
}

// Done reconciles the charged bytes with the exact queue capacity held.
func (p *keeperPrivate[T]) Done() {
	var zero T
	var capBytes int64
	for o := range p.qIdx {
		capBytes += int64(cap(p.qIdx[o]))*4 + int64(cap(p.qVal[o]))*int64(unsafe.Sizeof(zero))
	}
	if d := capBytes - p.charged; d > 0 {
		p.parent.mem.Alloc(d)
	} else if d < 0 {
		p.parent.mem.Free(-d)
	}
	p.charged = capBytes
}

// Private returns the accessor for thread tid; queues retained from a
// previous region are reused (emptied, capacity kept and still charged).
func (k *Keeper[T]) Private(tid int) Private[T] {
	p := &k.privs[tid]
	p.tel = k.tel.Shard(tid)
	for o := range p.qIdx {
		p.qIdx[o] = p.qIdx[o][:0]
		p.qVal[o] = p.qVal[o][:0]
	}
	return p
}

// EnableMidDrain switches mid-region mailbox publication on or off (off
// by default). The run harness enables it when it wires DrainMid to the
// chunk-boundary hook; with it off, foreign queues simply grow until
// Finalize. Must not be called while a region is running.
func (k *Keeper[T]) EnableMidDrain(on bool) { k.midDrain = on }

// DrainMid applies every parcel published to tid's mailbox. It must run
// on tid's own goroutine (the chunker's chunk-boundary hook does): the
// parcels target tid's ownership range, which only tid writes, so the
// applies are single-writer and need no further synchronization.
func (k *Keeper[T]) DrainMid(tid int) {
	if n := k.drainMail(tid); n > 0 {
		k.privs[tid].tel.Inc(telemetry.KeeperMidDrains)
	}
}

// drainMail takes owner o's whole mailbox in one swap and applies each
// parcel, pushing consumed parcels back to their producers' returns
// stacks for reuse. Returns the number of requests applied. Parcels come
// off the Treiber stack newest-first; application order of foreign
// batches was never part of the keeper's determinism contract (producer
// timing decides it), so no re-sort is paid here.
func (k *Keeper[T]) drainMail(o int) int {
	head := k.mail[o].head.Swap(nil)
	if head == nil {
		return 0
	}
	sh := k.tel.Shard(o)
	out := k.out
	drained := 0
	for par := head; par != nil; {
		next := par.next
		for j, i := range par.idx {
			out[i] += par.vals[j]
		}
		drained += len(par.idx)
		par.idx = par.idx[:0]
		par.vals = par.vals[:0]
		ret := &k.privs[par.from].returns
		for {
			old := ret.Load()
			par.next = old
			if ret.CompareAndSwap(old, par) {
				break
			}
		}
		par = next
	}
	sh.Add(telemetry.KeeperDrained, drained)
	return drained
}

// Finalize applies every queued update request serially. Queue capacity
// is retained (and stays charged to Bytes) for the next region.
func (k *Keeper[T]) Finalize() {
	for o := 0; o < k.threads; o++ {
		k.applyOwner(o)
	}
}

// FinalizeWith applies the update requests with the team, one owner range
// per member at a time. Owner ranges are disjoint, so no synchronization
// is needed beyond the region join.
func (k *Keeper[T]) FinalizeWith(t *par.Team) {
	t.Run(func(tid int) {
		for o := tid; o < k.threads; o += t.Size() {
			k.applyOwner(o)
		}
	})
}

// applyOwner applies all requests destined for owner o's range. Drained
// requests are counted against the owner's shard (each owner is processed
// by exactly one member in FinalizeWith, so the writes stay single-writer).
func (k *Keeper[T]) applyOwner(o int) {
	k.drainMail(o) // parcels published after the last mid-region drain
	sh := k.tel.Shard(o)
	for t := range k.privs {
		p := &k.privs[t]
		idx, val := p.qIdx[o], p.qVal[o]
		sh.Add(telemetry.KeeperDrained, len(idx))
		for j, i := range idx {
			k.out[i] += val[j]
		}
		p.qIdx[o] = idx[:0]
		p.qVal[o] = val[:0]
	}
}

func (k *Keeper[T]) Bytes() int64     { return k.mem.Bytes() }
func (k *Keeper[T]) PeakBytes() int64 { return k.mem.Peak() }
func (k *Keeper[T]) Name() string     { return "keeper" }
func (k *Keeper[T]) Threads() int     { return k.threads }

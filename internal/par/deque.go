package par

import "sync/atomic"

// This file implements the per-member chunk deque of the steal schedule:
// a fixed-capacity, lock-free work-stealing deque in the Chase-Lev style.
// The owning member pushes and pops at the bottom (LIFO, plain atomic
// loads on the common path — no CAS unless it races a thief for the last
// element) and thieves take from the top (FIFO, one CAS per steal). The
// element type is a packed iteration chunk, so the whole structure is a
// flat ring of uint64s with no indirection and no allocation after
// construction; a team allocates its deques once and resets them for
// every steal loop.
//
// Why the classic algorithm is safe here without explicit fences: Go's
// sync/atomic operations are sequentially consistent, which is the
// memory model the original Chase-Lev proof assumes. The fixed capacity
// replaces the paper's growable buffer: pushBottom reports failure when
// the ring is full and the caller executes the chunk directly instead of
// deferring it. Slot reuse cannot hand a thief a stale chunk — a push
// only overwrites a slot at least dequeCap positions past top, and a
// thief that read the slot under an older top value always fails its
// top CAS (top is monotonically increasing).

// dequeCap is the fixed ring capacity in chunks. Seeding pushes at most
// stealSeedChunks entries and the split path at most log2(range) more
// onto an otherwise-empty deque, so the ring never fills in practice;
// the bound exists to keep the structure allocation-free after setup.
const dequeCap = 256

// chunk is a half-open iteration sub-range stored as offsets relative to
// the loop's lo bound (the stealer guards the range against int32
// overflow at construction).
type chunk struct{ from, to int32 }

func (c chunk) size() int { return int(c.to - c.from) }

func packChunk(c chunk) uint64 {
	return uint64(uint32(c.from))<<32 | uint64(uint32(c.to))
}

func unpackChunk(v uint64) chunk {
	return chunk{from: int32(uint32(v >> 32)), to: int32(uint32(v))}
}

// deque is one member's chunk ring. bottom and top each sit on their own
// cache line: the owner hammers bottom, thieves hammer top, and sharing
// a line between them would put every local pop on the coherence bus.
type deque struct {
	_      [64]byte
	bottom atomic.Int64 // next free slot; owner push/pop end
	_      [56]byte
	top    atomic.Int64 // oldest live slot; thief end
	_      [56]byte
	// stolen counts successful steals from this deque. The owner samples
	// it on the pop path to decide whether coalescing chunks is safe
	// (nobody is eating from the far end) — see stealer.coalesce.
	stolen atomic.Int64
	// mark is the owner's last observed stolen value; owner-only, so a
	// plain field is fine (it shares the line with stolen, which thieves
	// write rarely — once per successful steal).
	mark int64
	_    [40]byte
	buf  [dequeCap]atomic.Uint64
}

// push appends a chunk at the bottom. Returns false when the ring is
// full; the caller must then consume the chunk itself. Owner-only.
func (d *deque) push(c chunk) bool {
	b := d.bottom.Load()
	t := d.top.Load()
	if b-t >= dequeCap {
		return false
	}
	d.buf[b&(dequeCap-1)].Store(packChunk(c))
	d.bottom.Store(b + 1)
	return true
}

// pop removes the most recently pushed chunk (LIFO). The only CAS is the
// last-element race against a concurrent thief. Owner-only.
func (d *deque) pop() (chunk, bool) {
	b := d.bottom.Load() - 1
	d.bottom.Store(b)
	t := d.top.Load()
	if t > b {
		// Empty: restore bottom.
		d.bottom.Store(b + 1)
		return chunk{}, false
	}
	c := unpackChunk(d.buf[b&(dequeCap-1)].Load())
	if t == b {
		// Last element: whoever wins the top CAS owns it.
		won := d.top.CompareAndSwap(t, t+1)
		d.bottom.Store(b + 1)
		if !won {
			return chunk{}, false
		}
		return c, true
	}
	return c, true
}

// steal removes the oldest chunk (FIFO) on behalf of another member.
// Returns false when the deque looks empty or the top CAS loses to a
// competing thief (or the owner's last-element pop). Thread-safe.
func (d *deque) steal() (chunk, bool) {
	t := d.top.Load()
	b := d.bottom.Load()
	if t >= b {
		return chunk{}, false
	}
	c := unpackChunk(d.buf[t&(dequeCap-1)].Load())
	if !d.top.CompareAndSwap(t, t+1) {
		return chunk{}, false
	}
	return c, true
}

// reset empties the deque for the next loop. Chunks left by a region
// that panicked are dropped by moving bottom up to top, so top stays
// monotonic and the slot-reuse argument above still holds across loops.
// The steal mark restarts level with the counter, as on a fresh deque.
// Only between regions.
func (d *deque) reset() {
	d.bottom.Store(d.top.Load())
	d.mark = d.stolen.Load()
}

// size returns a racy estimate of the live chunk count (exact when the
// deque is quiescent — the termination scan's case).
func (d *deque) size() int64 {
	s := d.bottom.Load() - d.top.Load()
	if s < 0 {
		return 0
	}
	return s
}

package par

import (
	"sync/atomic"

	"spray/internal/telemetry"
)

// Chunker hands out the chunks of one loop instance according to a
// schedule. It exists so callers that need per-thread prologue/epilogue
// work around the chunk loop (reduction init/combine) can drive the chunk
// iteration themselves from inside Team.Run. ParallelFor is implemented on
// top of it.
//
// Each Team owns exactly one Chunker, steal deques included, and Team.Loop
// resets it for every loop, as LLVM's libomp reuses its per-team dispatch
// buffers loop after loop: handing out a loop allocates nothing, except
// that a team's first steal loop allocates its deques. A Chunker returned
// by Loop is therefore valid until the next loop on the same team starts.
type Chunker struct {
	s         Schedule
	lo, hi    int
	n         int
	rec       *telemetry.Recorder // nil = runtime counters off
	chunkDone func(tid int)       // nil = no chunk-boundary hook
	st        stealer             // steal-schedule runtime; used by KindSteal only

	// The shared claim cursor sits on its own cache line: dynamic and
	// guided hammer it with atomic read-modify-writes from every member,
	// and without the padding those writes would keep invalidating the
	// line carrying the read-only bounds/schedule fields that every chunk
	// hand-out loads (see BenchmarkChunkerCursor* for the before/after).
	_    [64]byte
	next atomic.Int64 // shared cursor for dynamic/guided
	_    [56]byte
}

// reset prepares c for the range [lo, hi) on a team of teamSize members
// under schedule s, reporting runtime counters to rec (nil = off). It
// clears everything the previous loop left behind: the claim cursor, the
// chunk-done hook and, for the steal schedule, the deques' seeded flags
// and any chunk a panicked region left in them.
func (c *Chunker) reset(s Schedule, lo, hi, teamSize int, rec *telemetry.Recorder) {
	s.validate()
	c.s, c.lo, c.hi, c.n = s, lo, hi, teamSize
	c.rec, c.chunkDone = rec, nil
	c.next.Store(int64(lo))
	if s.Kind == KindSteal && hi > lo {
		c.st.reset(lo, hi, teamSize, s.Chunk)
	}
}

// SetChunkDone attaches a chunk-boundary hook: after each chunk body
// returns, fn(tid) runs on the member's own goroutine, before the next
// chunk is requested. Reducers use it for cooperative mid-region work —
// the keeper drains its inbound mailbox here — so the hook should be
// cheap when there is nothing to do. Attach before the loop starts.
func (c *Chunker) SetChunkDone(fn func(tid int)) { c.chunkDone = fn }

// For invokes body for every chunk assigned to member tid, in hand-out
// order. All members of the team must call For exactly once for dynamic
// and guided schedules to distribute the full range.
func (c *Chunker) For(tid int, body func(from, to int)) {
	if c.hi <= c.lo {
		return
	}
	if done := c.chunkDone; done != nil {
		inner := body
		body = func(from, to int) {
			inner(from, to)
			done(tid)
		}
	}
	switch c.s.Kind {
	case KindSteal:
		c.st.run(tid, c.rec.Shard(tid), body)
	case KindStatic:
		from, to := StaticRange(c.lo, c.hi, tid, c.n)
		if from < to {
			body(from, to)
		}
	case KindStaticChunk:
		ch := c.s.Chunk
		for start := c.lo + tid*ch; start < c.hi; start += c.n * ch {
			end := start + ch
			if end > c.hi {
				end = c.hi
			}
			body(start, end)
		}
	case KindDynamic:
		ch := int64(c.s.Chunk)
		for {
			start := c.next.Add(ch) - ch
			if start >= int64(c.hi) {
				return
			}
			end := start + ch
			if end > int64(c.hi) {
				end = int64(c.hi)
			}
			body(int(start), int(end))
		}
	case KindGuided:
		minChunk := int64(c.s.Chunk)
		size := int64(c.n)
		for {
			start := c.next.Load()
			if start >= int64(c.hi) {
				return
			}
			remaining := int64(c.hi) - start
			ch := remaining / size
			if ch < minChunk {
				ch = minChunk
			}
			if !c.next.CompareAndSwap(start, start+ch) {
				continue
			}
			end := start + ch
			if end > int64(c.hi) {
				end = int64(c.hi)
			}
			body(int(start), int(end))
		}
	}
}

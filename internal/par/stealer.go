package par

import (
	"fmt"
	"runtime"
	"sync/atomic"

	"spray/internal/telemetry"
)

// This file implements the steal schedule's runtime on top of the chunk
// deques in deque.go.
//
// Partitioning starts exactly where the static schedule starts: each
// member's deque is seeded with its contiguous StaticRange slice, cut
// into seed chunks and pushed far-end-first so LIFO pops walk the slice
// in ascending order. A member that has work therefore touches the same
// indices, in the same order, as it would under schedule(static) — which
// is what keeps the keeper's ownership locality intact when the load is
// balanced and stealing never triggers. Only when a member runs dry does
// it become a thief: it probes victims nearest-first by team-ring
// distance (left/right order per distance decided by a per-member
// xorshift, so colliding thieves spread out) and takes the victim's
// oldest chunk — the far end of the victim's slice, the point farthest
// from where the victim is currently working.
//
// The grain controller adapts chunk sizes in both directions. A stolen
// chunk bigger than 2x the grain is split: far halves go back on the
// thief's own deque (stealable by others, popped next by the thief),
// halving until the in-hand piece is at most 2x grain. On the owner's
// pop path, when the deque's steal counter has not moved since the last
// pop (nobody is eating the far end), up to stealCoalesceMax adjacent
// seed chunks are merged into one body call, restoring static-schedule
// chunk sizes on uncontended regions.
//
// Termination: a member exits once its own deque is empty and a full
// scan finds every deque seeded and empty. This is safe because a chunk
// is owned by exactly one member from the moment it leaves a deque (pop
// and steal both transfer ownership through a winning top/bottom CAS)
// and every member drains its own deque — including far halves it
// pushed while splitting — before it starts scanning. Work can never
// "appear" after a clean scan except in the hands of a member that is
// still running and will execute it.
//
// Every counter below goes through the nil-safe telemetry shard, so an
// uninstrumented loop pays one predictable branch per event.

const (
	// stealSeedChunks is the target number of seed chunks per member:
	// enough granularity for thieves to take meaningful work without a
	// claim per chunk, few enough that seeding stays O(32) pushes.
	stealSeedChunks = 32
	// stealSplitFactor: stolen chunks larger than this multiple of the
	// grain are split before executing.
	stealSplitFactor = 2
	// stealCoalesceMax bounds how many adjacent chunks the owner merges
	// into one body call when the steal rate is zero.
	stealCoalesceMax = 4
	// stealMaxRange is the largest iteration range the packed int32
	// chunk representation supports.
	stealMaxRange = 1 << 31
)

// stealer coordinates one loop instance under the steal schedule. It
// lives inside the team's Chunker, is reset by Team.Loop and driven by
// Chunker.For; all members of the team must call For exactly once (the
// same contract as the dynamic and guided schedules).
type stealer struct {
	lo, hi    int
	grain     int // minimum chunk size; splits never go below this
	seedChunk int // chunk size the deques are seeded with
	deques    []deque
	seeded    []atomic.Bool
}

// reset prepares the stealer for the loop [lo, hi) on a team of teamSize
// members. The deques are allocated by the team's first steal loop and
// reused by every later one.
func (s *stealer) reset(lo, hi, teamSize, grain int) {
	n := hi - lo
	if n >= stealMaxRange {
		panic(fmt.Sprintf("par: steal schedule supports ranges up to %d iterations, got %d", stealMaxRange-1, n))
	}
	if grain <= 0 {
		// Auto grain: a member's slice splits into at most ~128 grains,
		// so the controller has room to split stolen chunks a few times
		// below the seed size before hitting the floor.
		grain = n / (teamSize * 4 * stealSeedChunks)
		if grain < 1 {
			grain = 1
		}
	}
	slice := (n + teamSize - 1) / teamSize
	seedChunk := (slice + stealSeedChunks - 1) / stealSeedChunks
	if seedChunk < grain {
		seedChunk = grain
	}
	if seedChunk < 1 {
		seedChunk = 1
	}
	s.lo, s.hi, s.grain, s.seedChunk = lo, hi, grain, seedChunk
	if s.deques == nil {
		s.deques = make([]deque, teamSize)
		s.seeded = make([]atomic.Bool, teamSize)
	}
	for i := range s.deques {
		s.deques[i].reset()
		s.seeded[i].Store(false)
	}
}

// seed fills member tid's deque with its static slice, far end first.
// ceil(slice/seedChunk) <= stealSeedChunks by construction, so the
// pushes always fit in the empty ring.
func (s *stealer) seed(tid int) {
	from, to := StaticRange(s.lo, s.hi, tid, len(s.deques))
	if to <= from {
		// Surplus member (more members than iterations): nothing to seed.
		s.seeded[tid].Store(true)
		return
	}
	d := &s.deques[tid]
	for k := (to - from - 1) / s.seedChunk; k >= 0; k-- {
		cf := from + k*s.seedChunk
		ct := cf + s.seedChunk
		if ct > to {
			ct = to
		}
		d.push(chunk{from: int32(cf - s.lo), to: int32(ct - s.lo)})
	}
	s.seeded[tid].Store(true)
}

// run is member tid's whole loop: drain own deque, then steal, until the
// region is globally drained.
func (s *stealer) run(tid int, shard *telemetry.Shard, body func(from, to int)) {
	d := &s.deques[tid]
	s.seed(tid)
	// Per-member xorshift for the left/right tie-break; seeded off the
	// tid so members de-correlate without shared state.
	rng := uint64(tid)*0x9E3779B97F4A7C15 + 0x2545F4914F6CDD1D
	for {
		if c, ok := d.pop(); ok {
			c = s.coalesce(d, c, shard)
			body(s.lo+int(c.from), s.lo+int(c.to))
			shard.Inc(telemetry.ChunksExecuted)
			continue
		}
		c, ok := s.trySteal(tid, &rng, shard)
		if !ok {
			if s.drained() {
				return
			}
			runtime.Gosched()
			continue
		}
		// Split oversized loot: far halves go back on our (empty) deque —
		// visible to other thieves — and we keep the near half.
		for c.size() > stealSplitFactor*s.grain {
			mid := c.from + int32(c.size()/2)
			if !d.push(chunk{from: mid, to: c.to}) {
				break
			}
			c.to = mid
			shard.Inc(telemetry.GrainSplits)
		}
		body(s.lo+int(c.from), s.lo+int(c.to))
		shard.Inc(telemetry.ChunksExecuted)
	}
}

// coalesce merges adjacent chunks into one body call while nobody is
// stealing from this deque. The merge stops at the first gap (a stolen
// or split boundary) and never exceeds stealCoalesceMax chunks.
func (s *stealer) coalesce(d *deque, c chunk, shard *telemetry.Shard) chunk {
	if st := d.stolen.Load(); st != d.mark {
		// Thieves are active: leave the remaining chunks small so the far
		// end stays worth taking.
		d.mark = st
		return c
	}
	for k := 1; k < stealCoalesceMax; k++ {
		nc, ok := d.pop()
		if !ok {
			break
		}
		if nc.from != c.to {
			// Not contiguous; put it back. The push cannot fail: only the
			// owner pushes, and the pop above freed a slot.
			d.push(nc)
			break
		}
		c.to = nc.to
		shard.Inc(telemetry.GrainCoalesces)
	}
	return c
}

// trySteal probes victims nearest-first by ring distance, flipping the
// left/right order per distance with the member's xorshift state.
func (s *stealer) trySteal(tid int, rng *uint64, shard *telemetry.Shard) (chunk, bool) {
	n := len(s.deques)
	for dist := 1; dist <= n/2; dist++ {
		a := tid + dist
		if a >= n {
			a -= n
		}
		b := tid - dist
		if b < 0 {
			b += n
		}
		*rng ^= *rng << 13
		*rng ^= *rng >> 7
		*rng ^= *rng << 17
		if *rng&1 == 1 {
			a, b = b, a
		}
		if c, ok := s.stealFrom(a, shard); ok {
			return c, true
		}
		if b != a {
			if c, ok := s.stealFrom(b, shard); ok {
				return c, true
			}
		}
	}
	return chunk{}, false
}

func (s *stealer) stealFrom(victim int, shard *telemetry.Shard) (chunk, bool) {
	if !s.seeded[victim].Load() {
		return chunk{}, false
	}
	d := &s.deques[victim]
	if c, ok := d.steal(); ok {
		d.stolen.Add(1)
		shard.Inc(telemetry.Steals)
		shard.Add(telemetry.StealIters, c.size())
		return c, true
	}
	shard.Inc(telemetry.StealFails)
	return chunk{}, false
}

// drained reports whether every deque has been seeded and is empty. See
// the package comment above for why this is a safe exit condition.
func (s *stealer) drained() bool {
	for i := range s.deques {
		if !s.seeded[i].Load() {
			return false
		}
		if s.deques[i].size() > 0 {
			return false
		}
	}
	return true
}

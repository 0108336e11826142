package par

import (
	"sync/atomic"
	"time"
)

// Timing accumulates region lifecycle times for one team: wall time per
// Team.Run, per-member busy time inside the region body, and time spent
// waiting at team barriers. It is the timing half of the telemetry layer
// (counter shards live with the reducers in internal/core); attach it
// with Team.SetTiming and read it with Snapshot.
//
// All slots are atomic so a snapshot may be taken while a region runs
// (a mid-region Report); the per-member busy slots are written once per
// region by their owning member, so the accumulation itself is
// contention-free.
type Timing struct {
	regions atomic.Int64
	wallNS  atomic.Int64
	barrNS  atomic.Int64
	busyNS  []atomic.Int64
}

// NewTiming creates a timing accumulator for a team of the given size.
func NewTiming(threads int) *Timing {
	if threads < 1 {
		panic("par: timing needs a positive thread count")
	}
	return &Timing{busyNS: make([]atomic.Int64, threads)}
}

// Threads returns the team size the accumulator was built for.
func (tm *Timing) Threads() int { return len(tm.busyNS) }

// Snapshot returns the accumulated stats since creation or the last
// Reset.
func (tm *Timing) Snapshot() RegionStats {
	if tm == nil {
		return RegionStats{}
	}
	s := RegionStats{
		Regions:     int(tm.regions.Load()),
		Wall:        time.Duration(tm.wallNS.Load()),
		BarrierWait: time.Duration(tm.barrNS.Load()),
		Busy:        make([]time.Duration, len(tm.busyNS)),
	}
	for i := range tm.busyNS {
		s.Busy[i] = time.Duration(tm.busyNS[i].Load())
	}
	return s
}

// Reset zeroes the accumulator.
func (tm *Timing) Reset() {
	if tm == nil {
		return
	}
	tm.regions.Store(0)
	tm.wallNS.Store(0)
	tm.barrNS.Store(0)
	for i := range tm.busyNS {
		tm.busyNS[i].Store(0)
	}
}

// RegionStats is one timing snapshot: totals accumulated over Regions
// parallel regions.
type RegionStats struct {
	Regions     int             // regions executed
	Wall        time.Duration   // summed Team.Run wall time
	BarrierWait time.Duration   // summed time inside Team.Barrier, all members
	Busy        []time.Duration // per-member time inside region bodies
}

// MaxBusy returns the largest per-member busy time.
func (s RegionStats) MaxBusy() time.Duration {
	var m time.Duration
	for _, b := range s.Busy {
		if b > m {
			m = b
		}
	}
	return m
}

// MeanBusy returns the mean per-member busy time.
func (s RegionStats) MeanBusy() time.Duration {
	if len(s.Busy) == 0 {
		return 0
	}
	var t time.Duration
	for _, b := range s.Busy {
		t += b
	}
	return t / time.Duration(len(s.Busy))
}

// LoadImbalance returns max busy over mean busy — 1.0 is a perfectly
// balanced team, 2.0 means the slowest member worked twice the average.
// Returns 0 when nothing was recorded.
func (s RegionStats) LoadImbalance() float64 {
	mean := s.MeanBusy()
	if mean <= 0 {
		return 0
	}
	return float64(s.MaxBusy()) / float64(mean)
}

package telemetry

import (
	"fmt"
	"math"
	"math/bits"
	"time"
)

// HKind enumerates the latency distributions the strategies can sample.
// Unlike the event counters (Kind), these are not bumped on every event:
// the instrumented hot paths time one event in SamplePeriod (the cost of
// reading the clock twice is too high to pay per update) and feed the
// measured duration into a log-bucketed histogram shard.
type HKind uint8

const (
	// CASLatency is the latency of one atomic CAS-loop accumulation
	// (atomic strategy and the adaptive atomic regime), sampled 1-in-N.
	CASLatency HKind = iota
	// ClaimLatency is the latency of resolving storage for a block on
	// first touch — the in-place claim or the fallback privatization,
	// including pool reuse and zeroing. Block acquisition is rare (at
	// most once per block per thread per region), so every acquire is
	// observed when instrumented.
	ClaimLatency
	// KeeperDwell is the time a foreign update request spent queued
	// before the finalize drain applied it. Sampled per (thread, owner)
	// pair: the first foreign enqueue to each owner per region is
	// stamped and measured when that owner's queue drains (or, with the
	// mid-region mailbox path, when a published parcel is applied).
	KeeperDwell
	// PlanCompile is the latency of compiling one execution plan from a
	// recorded region (ownership partitioning plus exchange-list
	// construction). Compilation is rare — once per record region — so
	// every compile is observed when instrumented, making the one-time
	// inspection cost the amortization curve divides away directly
	// readable from the histogram.
	PlanCompile
	// NumHKinds sizes histogram shard blocks and snapshots.
	NumHKinds
)

var hkindNames = [NumHKinds]string{
	CASLatency:   "cas-latency",
	ClaimLatency: "claim-latency",
	KeeperDwell:  "keeper-dwell",
	PlanCompile:  "plan-compile-latency",
}

// String returns the stable external name of the latency kind.
func (k HKind) String() string {
	if int(k) < len(hkindNames) {
		return hkindNames[k]
	}
	return fmt.Sprintf("hkind(%d)", int(k))
}

// HKindByName resolves an external latency name back to its HKind.
func HKindByName(name string) (HKind, bool) {
	for k, n := range hkindNames {
		if n == name {
			return HKind(k), true
		}
	}
	return 0, false
}

// SamplePeriod is the decimation factor of the latency sampling hooks:
// Shard.Sample fires on the first event and then every SamplePeriod-th.
const SamplePeriod = 64

// HistBuckets is the number of power-of-two latency buckets. Bucket 0
// holds 0ns; bucket b holds durations in [2^(b-1), 2^b) ns, so 40
// buckets span sub-nanosecond to ~9 minutes — far beyond any latency a
// single reduction event can exhibit.
const HistBuckets = 40

// histBucket returns the bucket index for a nanosecond value.
func histBucket(ns uint64) int {
	b := bits.Len64(ns)
	if b >= HistBuckets {
		b = HistBuckets - 1
	}
	return b
}

// BucketUpper returns the inclusive upper bound of bucket b, the value
// quantile estimates report. The top bucket is unbounded; its nominal
// upper bound is returned.
func BucketUpper(b int) time.Duration {
	if b <= 0 {
		return 0
	}
	if b >= 63 {
		b = 63
	}
	return time.Duration(uint64(1)<<uint(b) - 1)
}

// HistSnapshot is a point-in-time copy of one latency histogram:
// log-bucketed counts plus exact count, sum and max. Snapshots merge
// slot-wise, so per-thread shards combine into exactly the histogram a
// single-threaded run over the same samples would produce.
type HistSnapshot struct {
	Buckets [HistBuckets]uint64
	Count   uint64
	Sum     uint64 // nanoseconds
	Max     uint64 // nanoseconds
}

// Merge adds other into h slot-wise.
func (h *HistSnapshot) Merge(other HistSnapshot) {
	for b := range h.Buckets {
		h.Buckets[b] += other.Buckets[b]
	}
	h.Count += other.Count
	h.Sum += other.Sum
	if other.Max > h.Max {
		h.Max = other.Max
	}
}

// Observe records one duration (a convenience for building reference
// histograms in tests and offline tooling; the hot path uses Shard).
func (h *HistSnapshot) Observe(d time.Duration) {
	ns := uint64(0)
	if d > 0 {
		ns = uint64(d.Nanoseconds())
	}
	h.Buckets[histBucket(ns)]++
	h.Count++
	h.Sum += ns
	if ns > h.Max {
		h.Max = ns
	}
}

// Quantile estimates the q-th quantile (0 < q <= 1) as the upper bound
// of the bucket holding the ceil(q*Count)-th smallest sample — by
// construction within one power-of-two bucket of the exact quantile.
// Returns 0 on an empty histogram.
func (h HistSnapshot) Quantile(q float64) time.Duration {
	if h.Count == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(h.Count)))
	if rank < 1 {
		rank = 1
	}
	if rank > h.Count {
		rank = h.Count
	}
	var cum uint64
	for b, n := range h.Buckets {
		cum += n
		if cum >= rank {
			if b == HistBuckets-1 || BucketUpper(b) > time.Duration(h.Max) {
				// The top (or max-containing) bucket is better bounded
				// by the exact maximum than by its nominal upper edge.
				return time.Duration(h.Max)
			}
			return BucketUpper(b)
		}
	}
	return time.Duration(h.Max)
}

// P50 returns the median estimate.
func (h HistSnapshot) P50() time.Duration { return h.Quantile(0.50) }

// P90 returns the 90th-percentile estimate.
func (h HistSnapshot) P90() time.Duration { return h.Quantile(0.90) }

// P99 returns the 99th-percentile estimate.
func (h HistSnapshot) P99() time.Duration { return h.Quantile(0.99) }

// MaxLatency returns the exact largest observed sample.
func (h HistSnapshot) MaxLatency() time.Duration { return time.Duration(h.Max) }

// Mean returns the exact arithmetic mean of the observed samples.
func (h HistSnapshot) Mean() time.Duration {
	if h.Count == 0 {
		return 0
	}
	return time.Duration(h.Sum / h.Count)
}

// String renders the summary line the region report embeds.
func (h HistSnapshot) String() string {
	if h.Count == 0 {
		return "(no samples)"
	}
	return fmt.Sprintf("n=%d p50=%v p90=%v p99=%v max=%v",
		h.Count, h.P50(), h.P90(), h.P99(), h.MaxLatency())
}

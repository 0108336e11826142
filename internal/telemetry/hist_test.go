package telemetry

import (
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"
)

func TestHKindNamesRoundTrip(t *testing.T) {
	seen := map[string]bool{}
	for k := HKind(0); k < NumHKinds; k++ {
		n := k.String()
		if n == "" || strings.HasPrefix(n, "hkind(") {
			t.Errorf("hkind %d has no name", k)
		}
		if seen[n] {
			t.Errorf("duplicate name %q", n)
		}
		seen[n] = true
	}
}

func TestHistBucketBoundaries(t *testing.T) {
	cases := []struct {
		ns   uint64
		want int
	}{
		{0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {7, 3}, {8, 4},
		{1023, 10}, {1024, 11},
	}
	for _, c := range cases {
		if got := histBucket(c.ns); got != c.want {
			t.Errorf("histBucket(%d) = %d, want %d", c.ns, got, c.want)
		}
	}
	// Each nonzero value must not exceed its bucket's upper bound and
	// must exceed the previous bucket's.
	for _, ns := range []uint64{1, 5, 100, 4096, 1 << 30} {
		b := histBucket(ns)
		if up := BucketUpper(b); time.Duration(ns) > up {
			t.Errorf("ns %d above bucket %d upper %v", ns, b, up)
		}
		if b > 0 {
			if low := BucketUpper(b - 1); time.Duration(ns) <= low {
				t.Errorf("ns %d not above bucket %d upper %v", ns, b-1, low)
			}
		}
	}
	// Absurd values clamp into the top bucket rather than indexing out.
	if got := histBucket(^uint64(0)); got != HistBuckets-1 {
		t.Errorf("max value bucket = %d", got)
	}
}

// TestHistShardMergeMatchesReference is the merge property of the
// tentpole: per-thread shards merged by the recorder must equal, slot
// for slot, the reference histogram a single-threaded pass over the
// same samples produces.
func TestHistShardMergeMatchesReference(t *testing.T) {
	const threads, samples = 5, 4000
	rng := rand.New(rand.NewSource(7))
	rec := NewRecorder("prop", threads)
	var ref HistSnapshot
	for i := 0; i < samples; i++ {
		// Span many octaves, including zero and the clamped top range.
		d := time.Duration(rng.Int63n(1 << uint(1+rng.Intn(40))))
		rec.Shard(i%threads).Observe(CASLatency, d)
		ref.Observe(d)
	}
	got := rec.Hist(CASLatency)
	if got != ref {
		t.Errorf("merged shards != single-threaded reference\n got %+v\nwant %+v", got, ref)
	}
	if hs := rec.Hists(); hs[CASLatency] != ref {
		t.Errorf("Hists()[CASLatency] diverges from Hist(CASLatency)")
	}
	if rec.Hist(KeeperDwell).Count != 0 {
		t.Error("untouched kind has samples")
	}
	rec.Reset()
	if rec.Hist(CASLatency).Count != 0 {
		t.Error("reset left histogram samples")
	}
}

// TestQuantileWithinOneBucket checks the estimator property: the
// reported quantile is never below the exact quantile and never more
// than one power-of-two bucket above it.
func TestQuantileWithinOneBucket(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(500)
		var h HistSnapshot
		exactNs := make([]uint64, n)
		for i := range exactNs {
			exactNs[i] = uint64(rng.Int63n(1 << uint(1+rng.Intn(34))))
			h.Observe(time.Duration(exactNs[i]))
		}
		sort.Slice(exactNs, func(i, j int) bool { return exactNs[i] < exactNs[j] })
		for _, q := range []float64{0.5, 0.9, 0.99, 1.0} {
			rank := int(float64(n)*q+0.9999) - 1
			if rank < 0 {
				rank = 0
			}
			if rank >= n {
				rank = n - 1
			}
			exact := exactNs[rank]
			est := uint64(h.Quantile(q))
			if est < exact {
				t.Fatalf("trial %d q=%v: estimate %d below exact %d", trial, q, est, exact)
			}
			if exact > 0 && est >= 2*exact {
				t.Fatalf("trial %d q=%v: estimate %d not within one bucket of exact %d", trial, q, est, exact)
			}
			if exact == 0 && est != 0 {
				t.Fatalf("trial %d q=%v: estimate %d for exact 0", trial, q, est)
			}
		}
		if got, want := uint64(h.MaxLatency()), exactNs[n-1]; got != want {
			t.Fatalf("trial %d: max %d, want %d", trial, got, want)
		}
	}
}

func TestQuantileEmptyAndSingle(t *testing.T) {
	var h HistSnapshot
	if h.Quantile(0.5) != 0 || h.P99() != 0 || h.Mean() != 0 {
		t.Error("empty histogram has nonzero quantiles")
	}
	if h.String() != "(no samples)" {
		t.Errorf("empty string %q", h.String())
	}
	h.Observe(100 * time.Nanosecond)
	for _, q := range []float64{0.01, 0.5, 1.0} {
		if v := h.Quantile(q); v < 100 || v > 127 {
			t.Errorf("single-sample quantile(%v) = %v", q, v)
		}
	}
	if !strings.Contains(h.String(), "n=1") {
		t.Errorf("string %q", h.String())
	}
}

func TestSampleDecimation(t *testing.T) {
	rec := NewRecorder("s", 1)
	sh := rec.Shard(0)
	fired := 0
	const calls = 10 * SamplePeriod
	for i := 0; i < calls; i++ {
		hit := sh.Sample(CASLatency)
		if hit {
			fired++
		}
		if (i%SamplePeriod == 0) != hit {
			t.Fatalf("call %d: sample = %v", i, hit)
		}
	}
	if fired != calls/SamplePeriod {
		t.Errorf("fired %d of %d calls", fired, calls)
	}
	// Independent streams per kind.
	if !sh.Sample(ClaimLatency) {
		t.Error("first sample of a fresh kind did not fire")
	}
	rec.Reset()
	if !sh.Sample(CASLatency) {
		t.Error("first sample after reset did not fire")
	}
}

func TestNilShardHistAndSample(t *testing.T) {
	var s *Shard
	if s.Sample(CASLatency) {
		t.Error("nil shard sampled")
	}
	s.Observe(CASLatency, time.Second) // must not panic
	if s.Hist(CASLatency).Count != 0 {
		t.Error("nil shard has samples")
	}
	var r *Recorder
	if r.Hist(CASLatency).Count != 0 {
		t.Error("nil recorder has samples")
	}
	if r.Hists() != ([NumHKinds]HistSnapshot{}) {
		t.Error("nil recorder Hists nonzero")
	}
}

func TestObserveNegativeAndMax(t *testing.T) {
	rec := NewRecorder("edge", 1)
	sh := rec.Shard(0)
	sh.Observe(CASLatency, -time.Second) // clock went backwards: clamp to 0
	sh.Observe(CASLatency, time.Duration(1)<<62)
	h := rec.Hist(CASLatency)
	if h.Count != 2 {
		t.Fatalf("count %d", h.Count)
	}
	if h.Buckets[0] != 1 || h.Buckets[HistBuckets-1] != 1 {
		t.Errorf("buckets %v", h.Buckets)
	}
	if h.Max != uint64(1)<<62 {
		t.Errorf("max %d", h.Max)
	}
}

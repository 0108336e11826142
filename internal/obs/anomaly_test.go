package obs

import (
	"math/bits"
	"strings"
	"testing"
	"time"

	"spray/internal/telemetry"
)

// detectorClock is a deterministic, manually advanced time source.
type detectorClock struct{ t time.Time }

func (c *detectorClock) now() time.Time          { return c.t }
func (c *detectorClock) advance(d time.Duration) { c.t = c.t.Add(d) }

// calmSample renders the cumulative state after `rounds` calm regions of
// the atomic strategy: 10k updates and 20 CAS retries (rate 0.002) per
// region, 1 ms wall each.
func calmSample(rounds int) Sample {
	var s Sample
	s.Strategy = "atomic"
	s.Threads = 4
	s.Regions = rounds
	s.Wall = time.Duration(rounds) * time.Millisecond
	s.BarrierWait = time.Duration(rounds) * 50 * time.Microsecond
	s.Counters[telemetry.Updates] = uint64(rounds) * 10_000
	s.Counters[telemetry.CASRetries] = uint64(rounds) * 20
	return s
}

func calmShape() int { return bits.Len64(10_000) }

func newTestDetector(clk *detectorClock, sinks ...telemetry.EventSink) *Detector {
	return NewDetector(DetectorConfig{
		Sigma:      4,
		MinSamples: 4,
		Cooldown:   time.Second,
		Now:        clk.now,
	}, sinks...)
}

func TestAnomalyDetectorFlagsCASStorm(t *testing.T) {
	clk := &detectorClock{t: time.Unix(1_700_000_000, 0)}
	ring := NewEventRing(0)
	det := newTestDetector(clk, ring)

	// Warm-up: 8 calm polls (first establishes the delta base, then 7
	// observations — past MinSamples).
	const calmPolls = 8
	for i := 1; i <= calmPolls; i++ {
		det.Observe(calmSample(i))
		clk.advance(100 * time.Millisecond)
	}
	if got := ring.Events(); len(got) != 0 {
		t.Fatalf("calm phase emitted %d events: %+v", len(got), got)
	}
	if _, _, n := det.Baseline("atomic", calmShape(), "cas-retry-rate"); n != calmPolls-1 {
		t.Fatalf("baseline samples = %d, want %d", n, calmPolls-1)
	}

	// The storm: one more region whose delta carries 5000 retries on 10k
	// updates — a 0.5 retry rate against a ~0.002 baseline.
	storm := calmSample(calmPolls + 1)
	storm.Counters[telemetry.CASRetries] += 5000
	det.Observe(storm)

	evs := ring.Events()
	if len(evs) != 1 {
		t.Fatalf("storm emitted %d events, want 1: %+v", len(evs), evs)
	}
	ev := evs[0]
	if ev.Source != "anomaly" || ev.Strategy != "atomic" {
		t.Errorf("event identity %q/%q", ev.Source, ev.Strategy)
	}
	if ev.Metric != "cas-retry-rate" || ev.Counter != "cas-retries" {
		t.Errorf("attribution %q/%q, want cas-retry-rate/cas-retries", ev.Metric, ev.Counter)
	}
	if ev.Z < 4 {
		t.Errorf("z = %v, want >= sigma", ev.Z)
	}
	if !strings.Contains(ev.Suggestion, "block-cas") || !strings.Contains(ev.Message, "cas-retries") {
		t.Errorf("message lacks remediation/counter: %q / %q", ev.Message, ev.Suggestion)
	}

	// Outlier exclusion: the storm must not have entered the baseline.
	mean, _, n := det.Baseline("atomic", calmShape(), "cas-retry-rate")
	if n != calmPolls-1 || mean > 0.01 {
		t.Errorf("storm polluted baseline: mean=%v n=%d", mean, n)
	}
}

func TestAnomalyCooldownRateLimits(t *testing.T) {
	clk := &detectorClock{t: time.Unix(1_700_000_000, 0)}
	ring := NewEventRing(0)
	det := newTestDetector(clk, ring)

	for i := 1; i <= 8; i++ {
		det.Observe(calmSample(i))
		clk.advance(100 * time.Millisecond)
	}
	stormAt := func(round int) Sample {
		s := calmSample(round)
		s.Counters[telemetry.CASRetries] += 5000 * uint64(round-8)
		return s
	}
	det.Observe(stormAt(9))
	clk.advance(100 * time.Millisecond) // inside the 1 s cooldown
	det.Observe(stormAt(10))
	if n := len(ring.Events()); n != 1 {
		t.Fatalf("cooldown let through %d events, want 1", n)
	}
	clk.advance(2 * time.Second) // past the cooldown
	det.Observe(stormAt(11))
	if n := len(ring.Events()); n != 2 {
		t.Errorf("post-cooldown storm suppressed: %d events, want 2", n)
	}
}

func TestAnomalyWallAttributionFallsBackToWall(t *testing.T) {
	clk := &detectorClock{t: time.Unix(1_700_000_000, 0)}
	ring := NewEventRing(0)
	det := newTestDetector(clk, ring)

	for i := 1; i <= 10; i++ {
		det.Observe(calmSample(i))
		clk.advance(100 * time.Millisecond)
	}
	// A pure wall regression: the region took 100× longer with every
	// counter rate unchanged. The composite metric must fire and, with no
	// counter metric deviating, pin on "wall".
	slow := calmSample(11)
	slow.Wall += 100 * time.Millisecond
	det.Observe(slow)

	evs := ring.Events()
	if len(evs) != 1 {
		t.Fatalf("wall regression emitted %d events, want 1: %+v", len(evs), evs)
	}
	if evs[0].Metric != "wall-per-region" || evs[0].Counter != "wall" {
		t.Errorf("attribution %q/%q, want wall-per-region/wall", evs[0].Metric, evs[0].Counter)
	}
}

func TestAnomalyShapeBucketsSeparateBaselines(t *testing.T) {
	clk := &detectorClock{t: time.Unix(1_700_000_000, 0)}
	det := newTestDetector(clk)

	// Alternate tiny and huge regions: each shape keeps its own baseline,
	// so neither reads the alternation as an anomaly.
	small, big := 0, 0
	var sSmall, sBig Sample
	sSmall.Strategy, sBig.Strategy = "atomic", "atomic"
	sSmall.Threads, sBig.Threads = 4, 4
	for i := 0; i < 12; i++ {
		if i%2 == 0 {
			small++
			sSmall.Regions = small
			sSmall.Wall = time.Duration(small) * time.Millisecond
			sSmall.Counters[telemetry.Updates] = uint64(small) * 100
			det.Observe(sSmall)
		} else {
			big++
			sBig.Regions = big
			sBig.Wall = time.Duration(big) * 10 * time.Millisecond
			sBig.Counters[telemetry.Updates] = uint64(big) * 1_000_000
			det.Observe(sBig)
		}
		clk.advance(50 * time.Millisecond)
	}
	shapeSmall := bits.Len64(100)
	shapeBig := bits.Len64(1_000_000)
	if shapeSmall == shapeBig {
		t.Fatal("test shapes collide")
	}
	if _, _, n := det.Baseline("atomic", shapeSmall, "wall-per-region"); n == 0 {
		t.Error("small shape has no baseline")
	}
	if _, _, n := det.Baseline("atomic", shapeBig, "wall-per-region"); n == 0 {
		t.Error("big shape has no baseline")
	}
}

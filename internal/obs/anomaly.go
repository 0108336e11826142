package obs

import (
	"fmt"
	"math"
	"math/bits"
	"sync"
	"time"

	"spray/internal/telemetry"
)

// Detector defaults. Sigma 6 on Welford baselines over noisy wall-clock
// rates keeps the false-positive rate negligible while a genuine regime
// flip (a CAS storm moving retries-per-element by orders of magnitude)
// scores far beyond it.
const (
	DefaultSigma      = 6.0
	DefaultMinSamples = 8
	DefaultCooldown   = 5 * time.Second
)

// DetectorConfig tunes the online anomaly detector.
type DetectorConfig struct {
	Sigma      float64       // z-score threshold (<= 0: DefaultSigma)
	MinSamples int           // baseline warm-up (<= 0: DefaultMinSamples)
	Cooldown   time.Duration // per-(strategy, metric) emit rate limit (<= 0: DefaultCooldown)
	// Now is the clock, injectable for deterministic tests (nil:
	// time.Now).
	Now func() time.Time
}

// Detector keeps one set of streaming baselines per (strategy,
// region-shape) key and emits structured events when an observation's
// z-score crosses the threshold. It is fed point-in-time Samples —
// successive snapshots of monotonically increasing counters — and works
// on the deltas between them, so one completed batch of regions between
// two polls is one observation.
//
// The derived metrics, per observation:
//
//	wall-per-region        region wall seconds per region
//	barrier-share          barrier wait / (wall × threads)
//	cas-retry-rate         CAS retries per delivered element
//	block-fallback-share   fallback blocks / blocks resolved
//	keeper-foreign-share   foreign enqueues / keeper updates
//	plan-invalidation-rate plan invalidations per region
//
// Anomalous observations are excluded from the baseline update (outlier
// exclusion keeps a storm from dragging the baseline up until the storm
// reads as normal), and emission is rate-limited per (strategy, metric).
type Detector struct {
	mu         sync.Mutex
	sigma      float64
	minSamples int
	cooldown   time.Duration
	now        func() time.Time
	sinks      []telemetry.EventSink
	states     map[stateKey]*stratState
}

type stateKey struct {
	strategy string
	shape    int // log2 bucket of elements per region
}

type stratState struct {
	prev     Sample
	havePrev bool
	base     map[string]*welford
	lastEmit map[string]time.Time
}

// welford is the classic streaming mean/variance accumulator.
type welford struct {
	n    int
	mean float64
	m2   float64
}

func (w *welford) add(x float64) {
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

func (w *welford) std() float64 {
	if w.n < 2 {
		return 0
	}
	return math.Sqrt(w.m2 / float64(w.n-1))
}

// NewDetector creates a detector emitting into the given sinks.
func NewDetector(cfg DetectorConfig, sinks ...telemetry.EventSink) *Detector {
	if cfg.Sigma <= 0 {
		cfg.Sigma = DefaultSigma
	}
	if cfg.MinSamples <= 0 {
		cfg.MinSamples = DefaultMinSamples
	}
	if cfg.Cooldown <= 0 {
		cfg.Cooldown = DefaultCooldown
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	return &Detector{
		sigma:      cfg.Sigma,
		minSamples: cfg.MinSamples,
		cooldown:   cfg.Cooldown,
		now:        cfg.Now,
		sinks:      sinks,
		states:     map[stateKey]*stratState{},
	}
}

// metric is one derived observable plus its attribution: the raw counter
// an anomaly is pinned on and the remediation hint for the operator.
type metric struct {
	name string
	// value derives the observation from the deltas; ok=false skips the
	// metric this round (denominator empty — e.g. no keeper traffic).
	value func(d obsDelta) (v float64, ok bool)
	// floor is the minimum standard deviation (absolute units) used in
	// the z-score, so near-constant baselines don't turn measurement
	// noise into infinite z.
	floor float64
	// counter names the attributed raw telemetry counter.
	counter string
	// suggest renders the remediation hint for the strategy.
	suggest func(strategy string) string
}

// obsDelta is what one Observe derives from two successive samples.
type obsDelta struct {
	regions  float64
	wall     float64 // seconds
	barrier  float64 // seconds
	threads  float64
	elems    float64 // updates + bulk elems
	counters telemetry.Snapshot
}

var metrics = []metric{
	{
		name: "cas-retry-rate",
		value: func(d obsDelta) (float64, bool) {
			if d.elems <= 0 {
				return 0, false
			}
			return float64(d.counters.Get(telemetry.CASRetries)) / d.elems, true
		},
		floor:   0.01,
		counter: "cas-retries",
		suggest: func(string) string {
			return "advisor suggests block-cas (a claimed block absorbs contended updates without a per-element CAS loop)"
		},
	},
	{
		name: "keeper-foreign-share",
		value: func(d obsDelta) (float64, bool) {
			own := float64(d.counters.Get(telemetry.KeeperOwned))
			foreign := float64(d.counters.Get(telemetry.KeeperForeign))
			if own+foreign <= 0 {
				return 0, false
			}
			return foreign / (own + foreign), true
		},
		floor:   0.02,
		counter: "keeper-foreign",
		suggest: func(string) string {
			return "foreign-queue pressure: align the schedule with the ownership partition, or switch to block/plan+keeper so exchanges are precomputed"
		},
	},
	{
		name: "block-fallback-share",
		value: func(d obsDelta) (float64, bool) {
			claims := float64(d.counters.Get(telemetry.BlockClaims))
			falls := float64(d.counters.Get(telemetry.BlockFallbacks))
			if claims+falls <= 0 {
				return 0, false
			}
			return falls / (claims + falls), true
		},
		floor:   0.02,
		counter: "block-fallbacks",
		suggest: func(string) string {
			return "blocks are contended: raise the block size or use keeper's static ownership"
		},
	},
	{
		name: "plan-invalidation-rate",
		value: func(d obsDelta) (float64, bool) {
			if d.regions <= 0 {
				return 0, false
			}
			return float64(d.counters.Get(telemetry.PlanInvalidations)) / d.regions, true
		},
		floor:   0.01,
		counter: "plan-invalidations",
		suggest: func(string) string {
			return "index pattern is unstable between regions: drop the plan wrapper or re-record per phase"
		},
	},
	{
		name: "barrier-share",
		value: func(d obsDelta) (float64, bool) {
			if d.wall <= 0 || d.threads <= 0 {
				return 0, false
			}
			return d.barrier / (d.wall * d.threads), true
		},
		floor:   0.02,
		counter: "barrier-wait",
		suggest: func(string) string {
			return "load imbalance at the join: try a dynamic or guided schedule, or smaller chunks"
		},
	},
	{
		name: "wall-per-region",
		value: func(d obsDelta) (float64, bool) {
			if d.regions <= 0 {
				return 0, false
			}
			return d.wall / d.regions, true
		},
		floor:   1e-6, // 1µs: regions below this are all scheduler noise
		counter: "",   // attributed dynamically to the max-z counter metric
		suggest: func(string) string {
			return "region time regressed with no single counter dominating: capture a trace (-trace) and compare timelines"
		},
	},
}

// Observe feeds one sample. The first sample per (strategy, shape) key
// only establishes the delta base; later samples with at least one new
// region become observations.
func (det *Detector) Observe(s Sample) {
	det.mu.Lock()
	defer det.mu.Unlock()

	// Shape: the order of magnitude of elements delivered per region.
	// Baselines are per shape so a service that alternates between small
	// and large regions does not read the alternation as anomalies.
	elems := s.Counters.Get(telemetry.Updates) + s.Counters.Get(telemetry.BulkElems)
	regions := uint64(s.Regions)
	shape := 0
	if regions > 0 {
		shape = bits.Len64(elems / regions)
	}
	key := stateKey{strategy: s.Strategy, shape: shape}
	st, ok := det.states[key]
	if !ok {
		st = &stratState{base: map[string]*welford{}, lastEmit: map[string]time.Time{}}
		det.states[key] = st
	}
	if !st.havePrev {
		st.prev, st.havePrev = s, true
		return
	}
	dRegions := s.Regions - st.prev.Regions
	if dRegions <= 0 {
		// Nothing ran since the last poll (or the instrumentation was
		// reset); re-base and wait for work.
		st.prev = s
		return
	}
	dc := s.Counters.Delta(st.prev.Counters)
	d := obsDelta{
		regions:  float64(dRegions),
		wall:     (s.Wall - st.prev.Wall).Seconds(),
		barrier:  (s.BarrierWait - st.prev.BarrierWait).Seconds(),
		threads:  float64(s.Threads),
		elems:    float64(dc.Get(telemetry.Updates) + dc.Get(telemetry.BulkElems)),
		counters: dc,
	}
	st.prev = s

	// First pass: score every metric so composite anomalies (wall) can
	// be attributed to the dominant deviating counter metric.
	type scored struct {
		m       metric
		v, z    float64
		mean    float64
		sigma   float64
		breach  bool
		observe bool
	}
	results := make([]scored, 0, len(metrics))
	maxCounterZ, maxCounterIdx := 0.0, -1
	for _, m := range metrics {
		v, ok := m.value(d)
		if !ok {
			continue
		}
		w := st.base[m.name]
		if w == nil {
			w = &welford{}
			st.base[m.name] = w
		}
		r := scored{m: m, v: v, observe: true}
		if w.n >= det.minSamples {
			sd := w.std()
			if sd < m.floor {
				sd = m.floor
			}
			r.mean, r.sigma = w.mean, sd
			r.z = (v - w.mean) / sd
			r.breach = r.z >= det.sigma
		}
		if r.breach {
			r.observe = false // outlier exclusion
		}
		if m.counter != "" && r.z > maxCounterZ {
			maxCounterZ, maxCounterIdx = r.z, len(results)
		}
		results = append(results, r)
	}

	now := det.now()
	for _, r := range results {
		if r.observe {
			st.base[r.m.name].add(r.v)
		}
		if !r.breach {
			continue
		}
		if last, ok := st.lastEmit[r.m.name]; ok && now.Sub(last) < det.cooldown {
			continue
		}
		st.lastEmit[r.m.name] = now

		counter, suggestion := r.m.counter, r.m.suggest(s.Strategy)
		if counter == "" {
			// Composite metric: pin the event on the strongest deviating
			// counter-backed metric when one clearly moved too.
			if maxCounterIdx >= 0 && maxCounterZ >= det.sigma/2 {
				culprit := results[maxCounterIdx]
				counter = culprit.m.counter
				suggestion = culprit.m.suggest(s.Strategy)
			} else {
				counter = "wall"
			}
		}
		det.emit(telemetry.Event{
			Time:       now,
			Source:     "anomaly",
			Strategy:   s.Strategy,
			Metric:     r.m.name,
			Counter:    counter,
			Value:      r.v,
			Mean:       r.mean,
			Sigma:      r.sigma,
			Z:          r.z,
			Suggestion: suggestion,
			Message: fmt.Sprintf("%s %.1fσ above baseline on %s (%.4g vs mean %.4g) — %s",
				counter, r.z, s.Strategy, r.v, r.mean, suggestion),
		})
	}
}

// emit fans the event out to every sink. Called with det.mu held; sinks
// must not call back into the detector.
func (det *Detector) emit(ev telemetry.Event) {
	for _, s := range det.sinks {
		s.Emit(ev)
	}
}

// Baseline exposes a metric's current baseline (mean, std, samples) for
// a strategy and shape bucket — diagnostics about the diagnostics,
// surfaced by tests and spraymon's verbose mode.
func (det *Detector) Baseline(strategy string, shape int, metricName string) (mean, std float64, n int) {
	det.mu.Lock()
	defer det.mu.Unlock()
	st := det.states[stateKey{strategy: strategy, shape: shape}]
	if st == nil {
		return 0, 0, 0
	}
	w := st.base[metricName]
	if w == nil {
		return 0, 0, 0
	}
	return w.mean, w.std(), w.n
}

package spray_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"

	"spray"
	"spray/internal/conv"
	"spray/internal/obs"
	"spray/internal/telemetry"
)

// TestServeMetricsPrometheusRoundTrip is the satellite acceptance: bind
// an ephemeral port, and the returned address must round-trip to a
// successful, format-valid /metrics scrape carrying the instrumented
// reducer's series; the legacy expvar endpoint must ride along.
func TestServeMetricsPrometheusRoundTrip(t *testing.T) {
	srv, err := spray.ServeMetrics("localhost:0")
	if err != nil {
		t.Fatalf("ServeMetrics: %v", err)
	}
	defer srv.Close()

	const n, threads = 1 << 14, 2
	out := make([]float32, n)
	team := spray.NewTeam(threads)
	defer team.Close()
	r := spray.New(spray.Dense(), out, threads)
	in := spray.Instrument(team, r)
	defer in.Detach()
	in.Publish()
	w := conv.Weights3[float32]{WL: 0.25, WC: 0.5, WR: 0.25}
	w.RunBackprop(team, r, convSeed(n))

	resp, err := http.Get("http://" + srv.Addr() + "/metrics")
	if err != nil {
		t.Fatalf("scrape: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	scrape, err := obs.ParseProm(resp.Body)
	if err != nil {
		t.Fatalf("/metrics failed Prometheus validation: %v", err)
	}
	if v, ok := scrape.Value("spray_events_total", "strategy=dense", "kind=bulk_elems"); !ok || v == 0 {
		t.Errorf("dense bulk_elems series = %v, %v (want nonzero)", v, ok)
	}
	if v, ok := scrape.Value("spray_regions_total", "strategy=dense"); !ok || v < 1 {
		t.Errorf("dense regions = %v, %v", v, ok)
	}

	vresp, err := http.Get("http://" + srv.Addr() + "/debug/vars")
	if err != nil {
		t.Fatalf("expvar scrape: %v", err)
	}
	defer vresp.Body.Close()
	if vresp.StatusCode != http.StatusOK {
		t.Errorf("/debug/vars status %d", vresp.StatusCode)
	}
	var vars map[string]json.RawMessage
	if err := json.NewDecoder(vresp.Body).Decode(&vars); err != nil {
		t.Fatalf("expvar payload: %v", err)
	}
	if _, ok := vars["spray"]; !ok {
		t.Error("/debug/vars missing the published spray export")
	}
}

// TestFlightRecorderDumpOnWorkerPanic is the tentpole acceptance: after a
// forced worker panic, the flight dump must contain the panic event and
// the panicking region's last telemetry snapshot (strategy identified,
// counters nonzero).
func TestFlightRecorderDumpOnWorkerPanic(t *testing.T) {
	d := spray.EnableFlightRecorder(spray.DiagnosticsOptions{PollInterval: -1})
	defer spray.DisableFlightRecorder()

	const n, threads = 1 << 12, 2
	out := make([]float64, n)
	team := spray.NewTeam(threads)
	defer team.Close()
	r := spray.New(spray.Atomic(), out, threads)
	in := spray.Instrument(team, r)
	defer in.Detach()

	// A healthy region first, so the crash snapshot has counters to show.
	spray.RunReduction(team, r, 0, n, spray.Static(),
		func(acc spray.Accessor[float64], from, to int) {
			for i := from; i < to; i++ {
				acc.Add(i, 1)
			}
		})

	func() {
		defer func() {
			rec := recover()
			if rec == nil {
				t.Fatal("panicking region did not panic")
			}
			if _, ok := rec.(*spray.WorkerPanic); !ok {
				t.Fatalf("recovered %T, want *spray.WorkerPanic", rec)
			}
		}()
		spray.RunReduction(team, r, 0, n, spray.Static(),
			func(acc spray.Accessor[float64], from, to int) {
				panic("forced crash for the flight recorder")
			})
	}()

	evs := spray.Events()
	foundPanic := false
	for _, ev := range evs {
		if ev.Source == "panic" && strings.Contains(ev.Message, "forced crash") {
			foundPanic = true
		}
	}
	if !foundPanic {
		t.Fatalf("no panic event recorded: %+v", evs)
	}

	var buf bytes.Buffer
	if err := d.Flight.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var dump struct {
		Entries []struct {
			Kind    string `json:"kind"`
			Samples []struct {
				Strategy string            `json:"strategy"`
				Counters map[string]uint64 `json:"counters"`
			} `json:"samples"`
		} `json:"entries"`
	}
	if err := json.Unmarshal(buf.Bytes(), &dump); err != nil {
		t.Fatalf("flight dump not valid JSON: %v", err)
	}
	var panicEntry, snapWithCounters bool
	for _, e := range dump.Entries {
		if e.Kind == "panic" {
			panicEntry = true
		}
		for _, s := range e.Samples {
			if s.Strategy == "atomic" && s.Counters["updates"] > 0 {
				snapWithCounters = true
			}
		}
	}
	if !panicEntry {
		t.Error("flight dump has no panic entry")
	}
	if !snapWithCounters {
		t.Errorf("flight dump lacks the panicking region's snapshot:\n%s", buf.String())
	}
}

// TestCASStormRaisesAnomalyEvent is the anomaly-pillar acceptance: calm
// contention-free regions build the baseline, then a duplicate-heavy
// storm on the atomic strategy must raise an event naming cas-retries and
// suggesting the block-cas remediation.
func TestCASStormRaisesAnomalyEvent(t *testing.T) {
	d := spray.EnableFlightRecorder(spray.DiagnosticsOptions{
		PollInterval:      -1, // tests tick manually
		AnomalySigma:      4,
		AnomalyMinSamples: 4,
		AnomalyCooldown:   time.Millisecond,
	})
	defer spray.DisableFlightRecorder()

	const n, threads = 1 << 12, 4
	out := make([]float64, n)
	team := spray.NewTeam(threads)
	defer team.Close()
	r := spray.New(spray.Atomic(), out, threads)
	in := spray.Instrument(team, r)
	defer in.Detach()

	// Calm phase: disjoint indices, zero contention; every region delivers
	// exactly n updates so the detector's shape key stays fixed.
	calm := func(acc spray.Accessor[float64], from, to int) {
		for i := from; i < to; i++ {
			acc.Add(i, 1)
		}
	}
	for round := 0; round < 8; round++ {
		spray.RunReduction(team, r, 0, n, spray.Static(), calm)
		d.Poll()
	}
	// Real wall timings jitter, so a wall-per-region event can legitimately
	// fire here on a noisy machine; only a contention anomaly would be a bug.
	for _, ev := range spray.Events() {
		if ev.Counter == "cas-retries" {
			t.Fatalf("calm phase emitted a CAS anomaly: %+v", ev)
		}
	}
	before := in.Report().CounterMap()["cas-retries"]

	// The storm: same update count, but every thread hammers index 0.
	spray.RunReduction(team, r, 0, n, spray.Static(),
		func(acc spray.Accessor[float64], from, to int) {
			for i := from; i < to; i++ {
				acc.Add(0, 1)
			}
		})
	retries := in.Report().CounterMap()["cas-retries"] - before
	if retries < uint64(n)/25 { // < 4% retry rate cannot clear a 4σ/0.01-floor bar
		// A single-P scheduler rarely interleaves the CAS loops, so no
		// retries materialize from real threads. Fall back to replaying the
		// storm through the provider registry — the same end-to-end path
		// (EnableFlightRecorder options → Poll → Events), deterministic on
		// any machine.
		t.Logf("only %d real retries (GOMAXPROCS=%d); injecting storm via a synthetic provider",
			retries, runtime.GOMAXPROCS(0))
		in.Detach()
		spray.DisableFlightRecorder()
		d = spray.EnableFlightRecorder(spray.DiagnosticsOptions{
			PollInterval:      -1,
			AnomalySigma:      4,
			AnomalyMinSamples: 4,
			AnomalyCooldown:   time.Millisecond,
		})
		cum := obs.Sample{Strategy: "atomic", Threads: threads}
		id := obs.RegisterProvider(func() obs.Sample { return cum })
		defer obs.UnregisterProvider(id)
		advance := func(stormRetries uint64) {
			cum.Regions++
			cum.Wall += time.Millisecond
			cum.Counters[telemetry.Updates] += n
			cum.Counters[telemetry.CASRetries] += stormRetries
			d.Poll()
		}
		for i := 0; i < 8; i++ {
			advance(8) // calm: ~0.2% retry rate
		}
		advance(n / 2) // duplicate-heavy storm: 50% retry rate
		retries = n / 2
	} else {
		d.Poll()
	}

	var storm *spray.DiagEvent
	for _, ev := range spray.Events() {
		if ev.Source == "anomaly" && ev.Counter == "cas-retries" {
			ev := ev
			storm = &ev
			break
		}
	}
	if storm == nil {
		t.Fatalf("no cas-retries anomaly after the storm; events: %+v, retries=%d",
			spray.Events(), retries)
	}
	if storm.Strategy != "atomic" || storm.Metric != "cas-retry-rate" {
		t.Errorf("event identity %q/%q", storm.Strategy, storm.Metric)
	}
	if !strings.Contains(storm.Message, "cas-retries") || !strings.Contains(storm.Suggestion, "block-cas") {
		t.Errorf("event text lacks attribution/remediation: %q / %q", storm.Message, storm.Suggestion)
	}
	// The event must also have landed in the flight recorder's context.
	if et := d.Events.Seq(); et == 0 {
		t.Error("event ring sequence still zero")
	}
}

// TestObsOffStateIsAbsent pins the off state the overhead guard relies
// on: without EnableFlightRecorder there is no global diagnostics object
// and an uninstrumented run registers no providers — the reduction hot
// path cannot be observed, so it cannot be slowed.
func TestObsOffStateIsAbsent(t *testing.T) {
	spray.DisableFlightRecorder()
	if spray.Events() != nil {
		t.Error("Events() non-nil with diagnostics off")
	}
	const n, threads = 1 << 12, 2
	out := make([]float32, n)
	team := spray.NewTeam(threads)
	defer team.Close()
	r := spray.New(spray.Dense(), out, threads)
	w := conv.Weights3[float32]{WL: 0.25, WC: 0.5, WR: 0.25}
	w.RunBackprop(team, r, convSeed(n)) // uninstrumented: nothing registers
	if got := obs.Samples(); len(got) != 0 {
		t.Errorf("uninstrumented run registered %d providers", len(got))
	}
}

// BenchmarkObsOffOverheadConv extends the telemetry overhead guard to the
// diagnostics layer: the "off" flavor runs with the flight recorder and
// anomaly detector absent (the default), the "enabled" flavor with the
// full diagnostics polling at 10 ms. `make overhead-smoke` tracks the off
// flavor against BenchmarkTelemetryOverheadConv/off — they must be the
// same number, because the obs off state is the absence of providers.
func BenchmarkObsOffOverheadConv(b *testing.B) {
	const n, threads = 1 << 20, 2
	seed := convSeed(n)
	out := make([]float32, n)
	w := conv.Weights3[float32]{WL: 0.25, WC: 0.5, WR: 0.25}
	b.Run("off", func(b *testing.B) {
		spray.DisableFlightRecorder()
		team := spray.NewTeam(threads)
		defer team.Close()
		r := spray.New(spray.BlockCAS(1024), out, threads)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			w.RunBackprop(team, r, seed)
		}
		b.SetBytes(int64(n * 4))
	})
	b.Run("enabled", func(b *testing.B) {
		spray.EnableFlightRecorder(spray.DiagnosticsOptions{PollInterval: 10 * time.Millisecond})
		defer spray.DisableFlightRecorder()
		team := spray.NewTeam(threads)
		defer team.Close()
		r := spray.New(spray.BlockCAS(1024), out, threads)
		in := spray.Instrument(team, r)
		defer in.Detach()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			w.RunBackprop(team, r, seed)
		}
		b.SetBytes(int64(n * 4))
	})
}

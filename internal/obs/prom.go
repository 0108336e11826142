package obs

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"

	"spray/internal/telemetry"
)

// Prometheus text-format exposition (version 0.0.4): /metrics renders
// every registered provider's counters, latency histograms and region
// gauges with sanitized {strategy, kind} labels. Providers with the same
// strategy name (two instrumented reducers of one strategy) merge into
// one label set — the format forbids duplicate series.
//
// Series:
//
//	spray_events_total{strategy,kind}           counter, one per Kind
//	spray_latency_seconds{strategy,kind}        histogram (_bucket/_sum/_count)
//	spray_regions_total{strategy}               counter
//	spray_region_wall_seconds_total{strategy}   counter
//	spray_barrier_wait_seconds_total{strategy}  counter
//	spray_threads{strategy}                     gauge
//	spray_bytes{strategy}                       gauge
//	spray_peak_bytes{strategy}                  gauge
//	spray_load_imbalance{strategy}              gauge
//	spray_providers                             gauge
//	spray_anomaly_events_total                  counter (0 until Enable)
//	spray_flight_entries / spray_flight_dropped_total
//
// PrometheusHandler serves it; WritePrometheus renders to any writer
// (the SIGQUIT dump and tests reuse it).

// promName sanitizes a telemetry kind name into a Prometheus label
// value/metric fragment: dashes become underscores, anything outside
// [a-zA-Z0-9_] is dropped.
func promName(s string) string {
	var b strings.Builder
	b.Grow(len(s))
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			b.WriteRune(r)
		case r == '-', r == '.', r == ' ':
			b.WriteByte('_')
		}
	}
	return b.String()
}

// promLabel escapes a label value per the exposition format: backslash,
// double quote and newline are escaped, everything else passes through
// (strategy names like `plan+keeper` or `block-cas-1024` are legal
// label values as-is).
func promLabel(s string) string {
	var b strings.Builder
	b.Grow(len(s))
	for _, r := range s {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// mergeByStrategy folds samples with equal strategy names into one.
func mergeByStrategy(samples []Sample) []Sample {
	out := make([]Sample, 0, len(samples))
	idx := map[string]int{}
	for _, s := range samples {
		i, ok := idx[s.Strategy]
		if !ok {
			idx[s.Strategy] = len(out)
			out = append(out, s)
			continue
		}
		m := &out[i]
		m.Regions += s.Regions
		m.Wall += s.Wall
		m.BarrierWait += s.BarrierWait
		m.Bytes += s.Bytes
		m.PeakBytes += s.PeakBytes
		m.Counters.Merge(s.Counters)
		for k := range m.Hists {
			m.Hists[k].Merge(s.Hists[k])
		}
		if s.Threads > m.Threads {
			m.Threads = s.Threads
		}
		if s.Hot != nil {
			if m.Hot == nil {
				m.Hot = s.Hot
			} else if err := m.Hot.Merge(s.Hot); err != nil {
				// Same strategy over different arrays: keep the first
				// profile rather than emit a nonsensical blend.
				continue
			}
		}
	}
	return out
}

// fmtFloat renders a float the exposition way (shortest round-trip).
func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// WritePrometheus renders the current provider samples (plus diagnostics
// gauges when d is non-nil) in the Prometheus text exposition format.
func WritePrometheus(w io.Writer, samples []Sample, d *Diagnostics) {
	samples = mergeByStrategy(samples)
	sort.SliceStable(samples, func(i, j int) bool { return samples[i].Strategy < samples[j].Strategy })

	fmt.Fprintln(w, "# HELP spray_events_total Strategy telemetry counter events by kind.")
	fmt.Fprintln(w, "# TYPE spray_events_total counter")
	for _, s := range samples {
		st := promLabel(s.Strategy)
		for k := telemetry.Kind(0); k < telemetry.NumKinds; k++ {
			fmt.Fprintf(w, "spray_events_total{strategy=\"%s\",kind=\"%s\"} %d\n",
				st, promName(k.String()), s.Counters.Get(k))
		}
	}

	fmt.Fprintln(w, "# HELP spray_latency_seconds Sampled strategy event latencies by kind.")
	fmt.Fprintln(w, "# TYPE spray_latency_seconds histogram")
	for _, s := range samples {
		st := promLabel(s.Strategy)
		for k := telemetry.HKind(0); k < telemetry.NumHKinds; k++ {
			h := s.Hists[k]
			kind := promName(k.String())
			var cum uint64
			for b := 0; b < telemetry.HistBuckets; b++ {
				cum += h.Buckets[b]
				le := telemetry.BucketUpper(b).Seconds()
				fmt.Fprintf(w, "spray_latency_seconds_bucket{strategy=\"%s\",kind=\"%s\",le=\"%s\"} %d\n",
					st, kind, fmtFloat(le), cum)
			}
			fmt.Fprintf(w, "spray_latency_seconds_bucket{strategy=\"%s\",kind=\"%s\",le=\"+Inf\"} %d\n", st, kind, h.Count)
			fmt.Fprintf(w, "spray_latency_seconds_sum{strategy=\"%s\",kind=\"%s\"} %s\n",
				st, kind, fmtFloat(float64(h.Sum)/1e9))
			fmt.Fprintf(w, "spray_latency_seconds_count{strategy=\"%s\",kind=\"%s\"} %d\n", st, kind, h.Count)
		}
	}

	writeHotlines(w, samples)

	counterGauge := func(name, help, typ string, get func(Sample) string) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
		for _, s := range samples {
			fmt.Fprintf(w, "%s{strategy=\"%s\"} %s\n", name, promLabel(s.Strategy), get(s))
		}
	}
	counterGauge("spray_regions_total", "Parallel regions executed.", "counter",
		func(s Sample) string { return strconv.Itoa(s.Regions) })
	counterGauge("spray_region_wall_seconds_total", "Summed region wall time.", "counter",
		func(s Sample) string { return fmtFloat(s.Wall.Seconds()) })
	counterGauge("spray_barrier_wait_seconds_total", "Summed barrier wait across members.", "counter",
		func(s Sample) string { return fmtFloat(s.BarrierWait.Seconds()) })
	counterGauge("spray_threads", "Team size of the instrumented reducer.", "gauge",
		func(s Sample) string { return strconv.Itoa(s.Threads) })
	counterGauge("spray_bytes", "Strategy extra memory, current.", "gauge",
		func(s Sample) string { return strconv.FormatInt(s.Bytes, 10) })
	counterGauge("spray_peak_bytes", "Strategy extra memory, high-water mark.", "gauge",
		func(s Sample) string { return strconv.FormatInt(s.PeakBytes, 10) })
	counterGauge("spray_load_imbalance", "Max over mean per-member busy time.", "gauge",
		func(s Sample) string { return fmtFloat(s.LoadImbalance()) })

	fmt.Fprintln(w, "# HELP spray_providers Registered telemetry sample providers.")
	fmt.Fprintln(w, "# TYPE spray_providers gauge")
	fmt.Fprintf(w, "spray_providers %d\n", len(samples))

	var anomalies, flightLen uint64
	var flightDropped uint64
	if d != nil {
		anomalies = d.Events.Seq()
		flightLen = uint64(d.Flight.Len())
		flightDropped = d.Flight.Dropped()
	}
	fmt.Fprintln(w, "# HELP spray_anomaly_events_total Structured diagnostic events emitted.")
	fmt.Fprintln(w, "# TYPE spray_anomaly_events_total counter")
	fmt.Fprintf(w, "spray_anomaly_events_total %d\n", anomalies)
	fmt.Fprintln(w, "# HELP spray_flight_entries Flight recorder entries currently buffered.")
	fmt.Fprintln(w, "# TYPE spray_flight_entries gauge")
	fmt.Fprintf(w, "spray_flight_entries %d\n", flightLen)
	fmt.Fprintln(w, "# HELP spray_flight_dropped_total Flight recorder entries evicted oldest-first.")
	fmt.Fprintln(w, "# TYPE spray_flight_dropped_total counter")
	fmt.Fprintf(w, "spray_flight_dropped_total %d\n", flightDropped)
}

// PrometheusHandler serves the text exposition of the live provider
// registry plus the global diagnostics gauges.
func PrometheusHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		WritePrometheus(w, Samples(), Enabled())
	})
}

// Handler returns the full diagnostics mux:
//
//	/metrics              Prometheus text exposition
//	/debug/vars           expvar JSON (the legacy endpoint)
//	/debug/spray/flight   flight recorder JSON dump
//	/debug/spray/events   structured event feed JSON
//	/debug/spray/heatmap  contention profiles JSON
//
// The flight and events endpoints answer 404 until Enable has run; the
// heatmap endpoint answers 404 until some provider has the hotspot
// profiler enabled.
func Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/metrics", PrometheusHandler())
	mux.Handle("/debug/vars", telemetry.Handler())
	mux.HandleFunc("/debug/spray/flight", func(w http.ResponseWriter, r *http.Request) {
		d := Enabled()
		if d == nil {
			http.Error(w, "flight recorder not enabled", http.StatusNotFound)
			return
		}
		d.Flight.Handler().ServeHTTP(w, r)
	})
	mux.Handle("/debug/spray/heatmap", HeatmapHandler())
	mux.HandleFunc("/debug/spray/events", func(w http.ResponseWriter, r *http.Request) {
		d := Enabled()
		if d == nil {
			http.Error(w, "diagnostics not enabled", http.StatusNotFound)
			return
		}
		d.Events.Handler().ServeHTTP(w, r)
	})
	return mux
}

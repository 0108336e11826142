// Command spraybulk measures the bulk-update fast path: each strategy
// runs the conv back-propagation and transpose-matrix-vector workloads
// twice — element-wise (one Add per update) and batched (AddN/Scatter) —
// and reports both series side by side.
//
// Usage:
//
//	spraybulk -n 2000000 -max-threads 8
//	spraybulk -workload tmv -json results/BENCH_bulk.json
//
// -hotprofile attaches the index-space contention profiler to every
// measured configuration and writes the sampled hot-line profiles as a
// JSON array; feed the file to sprayadvise -profile for a
// profile-guided strategy recommendation:
//
//	spraybulk -workload conv -hotprofile hot.json
//	sprayadvise -profile hot.json
//
// Both commands accept -cpuprofile / -memprofile to capture pprof
// profiles of the run.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"spray"
	"spray/internal/bench"
	"spray/internal/cliutil"
	"spray/internal/experiments"
	"spray/internal/hotspot"
	"spray/internal/telemetry"
)

func main() {
	var (
		n          = flag.Int("n", 2_000_000, "conv array length / tmv node count")
		maxThreads = flag.Int("max-threads", 8, "largest thread count in the sweep")
		threads    = flag.String("threads", "", "explicit comma-separated thread counts (overrides -max-threads)")
		strategies = flag.String("strategies", "", "comma-separated strategy list (default: dense,atomic,block-cas,keeper)")
		workload   = flag.String("workload", "all", "workload to run: conv, tmv, imbalance or all")
		schedules  = flag.String("schedule", "", "comma-separated loop schedules for the imbalance workload's comparison series (spray.ParseSchedule forms, e.g. static,dynamic:8,guided,steal:4096; default static,dynamic,guided,steal)")
		repeats    = flag.Int("repeats", 3, "samples per configuration")
		minTime    = flag.Duration("min-time", 100*time.Millisecond, "minimum time per sample")
		jsonPath   = flag.String("json", "results/BENCH_bulk.json", "write results as JSON to this path (empty = skip)")
		metrics    = flag.Bool("metrics", false, "instrument every run: print a telemetry region report per measured point and attach the counters to the JSON output")
		hotPath    = flag.String("hotprofile", "", "attach the index-space contention profiler and write the sampled hot-line profiles (JSON array, one per measured configuration) to this path")
		tracePath  = flag.String("trace", "", "record span timelines and write them as Chrome trace-event JSON to this path (chrome://tracing, ui.perfetto.dev)")
		prof       cliutil.Profiling
	)
	prof.AddFlags(flag.CommandLine)
	flag.Parse()
	stopProf, err := prof.Start()
	fatalIf(err)

	cfg := experiments.DefaultBulkConfig(*n, *maxThreads)
	cfg.Runner = bench.Runner{Repeats: *repeats, MinTime: *minTime}
	var sink *telemetry.TraceSink
	if *tracePath != "" {
		sink = telemetry.NewTraceSink(0)
		cfg.Trace = sink
	}
	if *metrics {
		cfg.Telemetry = true
		cfg.OnReport = func(label string, rep spray.RegionReport) {
			fmt.Printf("-- %s --\n%s\n", label, rep)
		}
	}
	var hotProfiles []*spray.HotspotProfile
	if *hotPath != "" {
		cfg.HotProfile = func(label string, p *spray.HotspotProfile) {
			if p != nil {
				hotProfiles = append(hotProfiles, p)
			}
		}
	}
	if *threads != "" {
		ths, err := cliutil.ParseInts(*threads)
		fatalIf(err)
		cfg.Threads = ths
	}
	if *strategies != "" {
		sts, err := spray.ParseStrategies(*strategies)
		fatalIf(err)
		cfg.Strategies = sts
	}

	// The imbalance workload compares loop schedules instead of
	// strategies: -schedule picks its series, -strategies (first entry)
	// the reduction everything accumulates through.
	icfg := experiments.DefaultImbalanceConfig(*n/4, *maxThreads)
	icfg.Runner = cfg.Runner
	icfg.Threads = cfg.Threads
	icfg.Telemetry = cfg.Telemetry
	icfg.OnReport = cfg.OnReport
	if *strategies != "" {
		icfg.Strategy = cfg.Strategies[0]
	}
	if *schedules != "" {
		scheds, err := cliutil.ParseSchedules(*schedules)
		fatalIf(err)
		icfg.Schedules = scheds
	}

	var results []*bench.Result
	switch *workload {
	case "conv":
		results = append(results, experiments.BulkConv(cfg))
	case "tmv":
		results = append(results, experiments.BulkTMV(cfg))
	case "imbalance":
		lres, err := experiments.ImbalanceLulesh(icfg)
		fatalIf(err)
		results = append(results,
			experiments.ImbalanceSkew(icfg), experiments.ImbalanceTMV(icfg),
			lres, experiments.ImbalanceConv(icfg))
	case "all":
		lres, err := experiments.ImbalanceLulesh(icfg)
		fatalIf(err)
		results = append(results, experiments.BulkConv(cfg), experiments.BulkTMV(cfg),
			experiments.ImbalanceSkew(icfg), experiments.ImbalanceTMV(icfg),
			lres, experiments.ImbalanceConv(icfg))
	default:
		fatalIf(fmt.Errorf("unknown workload %q (want conv, tmv, imbalance or all)", *workload))
	}
	for _, res := range results {
		res.WriteTable(os.Stdout)
		fmt.Println()
	}

	if *jsonPath != "" {
		if dir := filepath.Dir(*jsonPath); dir != "." {
			fatalIf(os.MkdirAll(dir, 0o755))
		}
		f, err := os.Create(*jsonPath)
		fatalIf(err)
		fatalIf(bench.WriteJSON(f, results))
		fatalIf(f.Close())
		fmt.Fprintf(os.Stderr, "wrote %s\n", *jsonPath)
	}
	if *hotPath != "" {
		fatalIf(hotspot.WriteProfiles(*hotPath, hotProfiles))
		fmt.Fprintf(os.Stderr, "wrote %s (%d hot-line profiles)\n", *hotPath, len(hotProfiles))
	}
	if sink != nil {
		f, err := os.Create(*tracePath)
		fatalIf(err)
		fatalIf(sink.WriteChrome(f))
		fatalIf(f.Close())
		fmt.Fprintf(os.Stderr, "wrote %s (%d timelines, %d dropped events)\n", *tracePath, sink.Len(), sink.Dropped())
	}
	fatalIf(stopProf())
}

func fatalIf(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "spraybulk:", err)
		os.Exit(1)
	}
}

// Command spraybulk measures the bulk-update fast path: each strategy
// runs the conv back-propagation and the power-law graph push (the
// transpose product of sparse.Graph, the pattern sprayadvise -workload
// graph records) twice — element-wise (one Add per update) and batched
// (AddN/Scatter) — and reports both series side by side.
//
// Usage:
//
//	spraybulk -n 2000000 -max-threads 8
//	spraybulk -workload graph -json results/BENCH_bulk.json
//
// It accepts -cpuprofile / -memprofile to capture pprof profiles of the
// run.
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
)

func main() {
	var (
		n          = flag.Int("n", 2_000_000, "conv array length / graph node count")
		maxThreads = flag.Int("max-threads", 8, "largest thread count in the sweep")
		threads    = flag.String("threads", "", "explicit comma-separated thread counts (overrides -max-threads)")
		strategies = flag.String("strategies", "", "comma-separated strategy list (default: dense,atomic,block-cas,keeper)")
		workload   = flag.String("workload", "all", "workload to run: conv, graph, imbalance or all")
		schedules  = flag.String("schedule", "", "comma-separated loop schedules for the imbalance workload's comparison series (spray.ParseSchedule forms, e.g. static,dynamic:8,guided,steal:4096; default static,dynamic,guided,steal)")
		repeats    = flag.Int("repeats", 3, "samples per configuration")
		minTime    = flag.Duration("min-time", 100*time.Millisecond, "minimum time per sample")
		jsonPath   = flag.String("json", "results/BENCH_bulk.json", "write results as JSON to this path (empty = skip)")
		metrics    = flag.Bool("metrics", false, "instrument every run: print a telemetry region report per measured point and attach the counters to the JSON output")
		prof       cliutil.Profiling
	)
	prof.AddFlags(flag.CommandLine)
	flag.Parse()
	stopProf, err := prof.Start()
	fatalIf(err)

	cfg := experiments.DefaultBulkConfig(*n, *maxThreads)
	cfg.Runner = bench.Runner{Repeats: *repeats, MinTime: *minTime}
	if *metrics {
		cfg.Telemetry = true
		cfg.OnReport = func(label string, rep spray.RegionReport) {
			fmt.Printf("-- %s --\n%s\n", label, rep)
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
	case "graph":
		results = append(results, experiments.BulkGraph(cfg))
	case "imbalance":
		lres, err := experiments.ImbalanceLulesh(icfg)
		fatalIf(err)
		results = append(results,
			experiments.ImbalanceSkew(icfg), experiments.ImbalanceTMV(icfg),
			lres, experiments.ImbalanceConv(icfg))
	case "all":
		lres, err := experiments.ImbalanceLulesh(icfg)
		fatalIf(err)
		results = append(results, experiments.BulkConv(cfg), experiments.BulkGraph(cfg),
			experiments.ImbalanceSkew(icfg), experiments.ImbalanceTMV(icfg),
			lres, experiments.ImbalanceConv(icfg))
	default:
		fatalIf(fmt.Errorf("unknown workload %q (want conv, graph, imbalance or all)", *workload))
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
	fatalIf(stopProf())
}

func fatalIf(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "spraybulk:", err)
		os.Exit(1)
	}
}

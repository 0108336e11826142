// Command sprayconv reproduces the 1-D convolution back-propagation
// experiment of the SPRAY paper (§VI-A): Figure 11 (speedup over
// sequential per strategy and thread count), Figure 12 (best absolute
// time per implementation) and Figure 13 (block-size sweep).
//
// Usage:
//
//	sprayconv -figure 11 -n 10000000 -max-threads 56
//	sprayconv -figure 13 -n 1000000 -csv fig13.csv
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"spray"
	"spray/internal/bench"
	"spray/internal/cliutil"
	"spray/internal/experiments"
)

func main() {
	var (
		figure     = flag.Int("figure", 11, "figure to reproduce: 11, 12 or 13")
		n          = flag.Int("n", 10_000_000, "array length (paper: 1e7 float32)")
		maxThreads = flag.Int("max-threads", 0, "largest thread count in the sweep (0 = paper's 1..56)")
		threads    = flag.String("threads", "", "explicit comma-separated thread counts (overrides -max-threads)")
		strategies = flag.String("strategies", "", "comma-separated strategy list (default: paper's set)")
		blocks     = flag.String("blocks", "", "figure 13 block sizes (default 16..16384)")
		repeats    = flag.Int("repeats", 5, "samples per configuration")
		minTime    = flag.Duration("min-time", 200*time.Millisecond, "minimum time per sample")
		csvPath    = flag.String("csv", "", "also write results as CSV to this path")
		metrics    = flag.Bool("instrument", false, "attach telemetry to every run: print a region report (counters and region timing) per measured point to stderr")
	)
	flag.Parse()

	cfg := experiments.DefaultConvConfig(*n, *maxThreads)
	cfg.Runner = bench.Runner{Repeats: *repeats, MinTime: *minTime}
	cfg.Instrument = *metrics
	if *metrics {
		cfg.OnReport = func(label string, rep spray.RegionReport) {
			fmt.Fprintf(os.Stderr, "-- %s --\n%s\n", label, rep)
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

	var res *bench.Result
	switch *figure {
	case 11:
		res = experiments.Fig11(cfg)
	case 12:
		res = experiments.Fig12(cfg)
	case 13:
		f13 := experiments.DefaultFig13Config(*n, *maxThreads)
		f13.ConvConfig = cfg
		if *blocks != "" {
			bs, err := cliutil.ParseInts(*blocks)
			fatalIf(err)
			f13.BlockSizes = bs
		} else {
			f13.BlockSizes = []int{16, 64, 256, 1024, 4096, 16384}
		}
		res = experiments.Fig13(f13)
	default:
		fatalIf(fmt.Errorf("unknown figure %d (want 11, 12 or 13)", *figure))
	}
	res.WriteTable(os.Stdout)
	writeCSV(res, *csvPath)
}

func writeCSV(res *bench.Result, path string) {
	if path == "" {
		return
	}
	f, err := os.Create(path)
	fatalIf(err)
	fatalIf(res.WriteCSV(f))
	fatalIf(f.Close())
	fmt.Fprintf(os.Stderr, "wrote %s\n", path)
}

func fatalIf(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "sprayconv:", err)
		os.Exit(1)
	}
}

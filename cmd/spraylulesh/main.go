// Command spraylulesh reproduces the LULESH shock-hydrodynamics
// experiment of the SPRAY paper (§VI-C / Figure 16): whole-application
// run time and force-scheme memory overhead for the original
// domain-specific 8-copy parallelization against SPRAY reducers.
//
// The paper runs a 90³ mesh for 100 iterations; the default here is 30³
// so the full sweep finishes quickly — pass -edge 90 for the paper's
// size.
//
// Usage:
//
//	spraylulesh -edge 30 -cycles 100
//	spraylulesh -schemes original,block-lock-1024 -threads 1,4
//	spraylulesh -verify block-cas-1024 -edge 30   # LULESH-style final output
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"spray"
	"spray/internal/cliutil"
	"spray/internal/experiments"
	"spray/internal/lulesh"
	"spray/internal/par"
)

func main() {
	var (
		edge       = flag.Int("edge", 30, "elements per mesh edge (paper: 90)")
		cycles     = flag.Int("cycles", 100, "iterations to run (paper: 100)")
		maxThreads = flag.Int("max-threads", 0, "largest thread count (0 = paper's 1..56)")
		threads    = flag.String("threads", "", "explicit comma-separated thread counts")
		schemes    = flag.String("schemes", "", `comma-separated force schemes: "original" and/or spray strategy names`)
		repeats    = flag.Int("repeats", 3, "samples per configuration")
		csvPath    = flag.String("csv", "", "also write results as CSV to this path")
		verify     = flag.String("verify", "", "run one simulation with this force scheme and print the LULESH-style final output instead of benchmarking")
		regions    = flag.Int("regions", 1, "material regions for -verify (LULESH 2.0 -r)")
		cost       = flag.Int("cost", 1, "EOS cost repetition for every 5th region (-verify only, LULESH 2.0 -c)")
	)
	flag.Parse()

	if *verify != "" {
		runVerify(*verify, *edge, *cycles, *maxThreads, *regions, *cost)
		return
	}

	cfg := experiments.DefaultLuleshConfig(*edge, *cycles, *maxThreads)
	cfg.Repeats = *repeats
	if *threads != "" {
		ths, err := cliutil.ParseInts(*threads)
		fatalIf(err)
		cfg.Threads = ths
	}
	if *schemes != "" {
		cfg.Schemes = cliutil.ParseNames(*schemes)
	}

	res, err := experiments.Lulesh(cfg)
	fatalIf(err)
	res.WriteTable(os.Stdout)
	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		fatalIf(err)
		fatalIf(res.WriteCSV(f))
		fatalIf(f.Close())
		fmt.Fprintf(os.Stderr, "wrote %s\n", *csvPath)
	}
}

// runVerify runs a single simulation and prints the final-output block,
// mirroring LULESH's VerifyAndWriteFinalOutput.
func runVerify(scheme string, edge, cycles, threads, regions, cost int) {
	var fs lulesh.ForceScheme
	if scheme == "original" {
		fs = lulesh.Original()
	} else {
		st, err := spray.ParseStrategy(scheme)
		fatalIf(err)
		fs = lulesh.Spray(st)
	}
	if threads <= 0 {
		threads = 4
	}
	params := lulesh.Defaults()
	params.MaxCycles = cycles
	params.StopTime = 1e9
	params.NumRegions = regions
	params.RegionCost = cost
	d := lulesh.New(edge, params)
	team := par.NewTeam(threads)
	defer team.Close()
	start := time.Now()
	_, err := d.Run(team, fs)
	fatalIf(err)
	elapsed := time.Since(start)
	d.Summarize().Write(os.Stdout)
	fmt.Printf("   Force scheme        =  %s\n", fs.Name())
	fmt.Printf("   Scheme peak memory  =  %d bytes\n", fs.PeakBytes())
	fmt.Printf("   Elapsed time        =  %v (%d threads)\n", elapsed, threads)
}

func fatalIf(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "spraylulesh:", err)
		os.Exit(1)
	}
}

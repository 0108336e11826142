// Command benchdiff compares two benchmark JSON files written by
// bench.WriteJSON (cmd/spraybulk -json, make bench-bulk) and reports the
// per-point deltas. It exits nonzero when any point's mean regressed
// beyond a noise threshold derived from the recorded standard deviations,
// making it usable as a CI gate:
//
//	benchdiff old.json new.json
//	benchdiff -sigma 4 -min-rel 0.10 old.json new.json
//
// A missing, legacy or host-incompatible baseline exits 2 and prints the
// command that re-records it from the candidate: the baseline is never
// replaced behind the gate's back.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"spray/internal/bench"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		sigma  = fs.Float64("sigma", bench.DefaultSigma, "noise band width in combined standard deviations")
		minRel = fs.Float64("min-rel", bench.DefaultMinRel, "noise band floor as a fraction of the old mean")
		expect = fs.Bool("expect-regression", false, "self-test mode: exit 0 only when a regression IS detected")
		quiet  = fs.Bool("q", false, "suppress the delta table; print only the verdict")
	)
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: benchdiff [flags] <baseline.json> <candidate.json>")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fs.Usage()
		return 2
	}
	basePath, candPath := fs.Arg(0), fs.Arg(1)

	cand, err := bench.ReadFile(candPath)
	if err != nil {
		fmt.Fprintln(stderr, "benchdiff:", err)
		return 2
	}
	if cand.Legacy() {
		fmt.Fprintf(stderr, "benchdiff: candidate %s predates host metadata (schema %d); re-record it\n", candPath, cand.Schema)
		return 2
	}

	base, err := bench.ReadFile(basePath)
	var d *bench.Diff
	if err == nil {
		d, err = bench.DiffFiles(base, cand, bench.DiffOptions{Sigma: *sigma, MinRel: *minRel})
	}
	if err != nil {
		fmt.Fprintln(stderr, "benchdiff:", err)
		fmt.Fprintf(stderr, "benchdiff: to re-record the baseline from this run on this host: cp %s %s\n", candPath, basePath)
		return 2
	}

	if !*quiet {
		fmt.Fprintf(stdout, "baseline:  %s (%s)\n", basePath, base.Host)
		fmt.Fprintf(stdout, "candidate: %s (%s)\n", candPath, cand.Host)
		d.WriteTable(stdout)
	}
	regressed := d.Regressions() > 0
	if *expect {
		if !regressed {
			fmt.Fprintln(stderr, "benchdiff: expected a regression, found none")
			return 1
		}
		fmt.Fprintf(stdout, "benchdiff: regression detected as expected (%d point(s))\n", d.Regressions())
		return 0
	}
	if regressed {
		fmt.Fprintf(stderr, "benchdiff: %d point(s) regressed beyond the noise threshold\n", d.Regressions())
		return 1
	}
	fmt.Fprintln(stdout, "benchdiff: no regression")
	return 0
}

// Command sprayall runs the complete evaluation of the SPRAY
// reproduction — every figure of the paper — at a configurable scale and
// emits the tables (stdout) plus per-figure CSV files. The EXPERIMENTS.md
// numbers in this repository were produced by this command.
//
// Usage:
//
//	sprayall                   # laptop scale
//	sprayall -paper            # paper-scale problem sizes (slow)
//	sprayall -outdir results/  # also write CSVs
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"spray"
	"spray/internal/bench"
	"spray/internal/cliutil"
	"spray/internal/experiments"
	"spray/internal/hotspot"
	"spray/internal/sparse"
	"spray/internal/telemetry"
)

func main() {
	var (
		paper      = flag.Bool("paper", false, "use the paper's full problem sizes (slow)")
		maxThreads = flag.Int("max-threads", 0, "largest thread count (0 = paper's 1..56)")
		outdir     = flag.String("outdir", "", "directory for per-figure CSV files")
		repeats    = flag.Int("repeats", 3, "samples per configuration")
		minTime    = flag.Duration("min-time", 100*time.Millisecond, "minimum time per sample")
		schedule   = flag.String("schedule", "", "loop schedule for the conv and tmv figure sweeps (spray.ParseSchedule form, e.g. steal or dynamic:8; default static) — rerun with different values to compare schedules across the bench CSVs")
		metrics    = flag.Bool("metrics", false, "instrument the conv figures: print a telemetry region report per measured point (stderr) and attach counters to CSV-adjacent data")
		tracePath  = flag.String("trace", "", "record span timelines for the conv figures and write them as Chrome trace-event JSON to this path")
		hotPath    = flag.String("hotprofile", "", "attach the index-space contention profiler to the conv sweeps and write the sampled hot-line profiles (JSON array) to this path")
		prof       cliutil.Profiling
	)
	prof.AddFlags(flag.CommandLine)
	flag.Parse()
	stopProf, err := prof.Start()
	fatalIf(err)

	convN, tmvScale, luleshEdge, luleshCycles := 1_000_000, 0.1, 15, 30
	if *paper {
		convN, tmvScale, luleshEdge, luleshCycles = 10_000_000, 1.0, 90, 100
	}
	runner := bench.Runner{Repeats: *repeats, MinTime: *minTime}

	fmt.Printf("spray evaluation — GOMAXPROCS=%d, paper-scale=%v\n\n", runtime.GOMAXPROCS(0), *paper)

	var onReport func(label string, rep spray.RegionReport)
	if *metrics {
		onReport = func(label string, rep spray.RegionReport) {
			fmt.Fprintf(os.Stderr, "-- %s --\n%s\n", label, rep)
		}
	}

	var sink *telemetry.TraceSink
	if *tracePath != "" {
		sink = telemetry.NewTraceSink(0)
	}

	var hotProfiles []*spray.HotspotProfile
	var onHot func(label string, p *spray.HotspotProfile)
	if *hotPath != "" {
		onHot = func(label string, p *spray.HotspotProfile) {
			if p != nil {
				hotProfiles = append(hotProfiles, p)
			}
		}
	}

	var sched spray.Schedule // zero value: static, the paper's setup
	if *schedule != "" {
		sched, err = spray.ParseSchedule(*schedule)
		fatalIf(err)
	}

	// Figures 11-13: convolution back-propagation.
	convCfg := experiments.DefaultConvConfig(convN, *maxThreads)
	convCfg.Schedule = sched
	convCfg.Runner = runner
	convCfg.Instrument = *metrics
	convCfg.OnReport = onReport
	convCfg.Trace = sink
	convCfg.HotProfile = onHot
	emit(experiments.Fig11(convCfg), *outdir, "fig11.csv")
	emit(experiments.Fig12(convCfg), *outdir, "fig12.csv")
	f13 := experiments.DefaultFig13Config(convN, *maxThreads)
	f13.Runner = runner
	f13.Instrument = *metrics
	f13.OnReport = onReport
	f13.Trace = sink
	emit(experiments.Fig13(f13), *outdir, "fig13.csv")

	// Figures 14-15: transpose-matrix-vector products.
	s3 := scaleMatrix("s3dkt3m2", tmvScale)
	emit(experiments.TMV(experiments.TMVConfig{
		Name: "s3dkt3m2", Matrix: s3,
		Threads:    bench.ThreadCounts(*maxThreads),
		Strategies: experiments.DefaultTMVStrategies(),
		Runner:     runner, WithMKL: true,
		Schedule: sched,
	}), *outdir, "fig14.csv")

	debr := scaleMatrix("debr", tmvScale)
	emit(experiments.TMV(experiments.TMVConfig{
		Name: "debr", Matrix: debr,
		Threads:    bench.ThreadCounts(*maxThreads),
		Strategies: experiments.DefaultTMVStrategies(),
		Runner:     runner, WithMKL: true,
		Schedule: sched,
	}), *outdir, "fig15.csv")

	// Figure 16: LULESH.
	lcfg := experiments.DefaultLuleshConfig(luleshEdge, luleshCycles, *maxThreads)
	lcfg.Repeats = *repeats
	lres, err := experiments.Lulesh(lcfg)
	fatalIf(err)
	emit(lres, *outdir, "fig16.csv")

	// Beyond-paper strategies on the conv kernel.
	emit(experiments.Extensions(convCfg), *outdir, "extensions.csv")

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

// scaleMatrix generates the paper matrix (scale 1) or a proportionally
// shrunk stand-in for quick runs.
func scaleMatrix(name string, scale float64) *sparse.CSR[float32] {
	fmt.Fprintf(os.Stderr, "generating %s (scale %.2f)...\n", name, scale)
	if scale >= 1 {
		if name == "s3dkt3m2" {
			return sparse.S3DKT3M2Like[float32](1)
		}
		return sparse.DebrLike[float32](1)
	}
	if name == "s3dkt3m2" {
		rows := int(90449 * scale)
		return sparse.Banded[float32](rows, rows, 21, 600, 1)
	}
	rows := int(1048576 * scale)
	return sparse.Banded[float32](rows, rows, 4, int(500000*scale), 1)
}

func emit(res *bench.Result, outdir, csvName string) {
	res.WriteTable(os.Stdout)
	fmt.Println()
	if outdir == "" {
		return
	}
	fatalIf(os.MkdirAll(outdir, 0o755))
	path := filepath.Join(outdir, csvName)
	f, err := os.Create(path)
	fatalIf(err)
	fatalIf(res.WriteCSV(f))
	fatalIf(f.Close())
	fmt.Fprintf(os.Stderr, "wrote %s\n", path)
}

func fatalIf(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "sprayall:", err)
		os.Exit(1)
	}
}

// Command sprayall runs the evaluation of the SPRAY reproduction — every
// figure of the paper plus the beyond-paper extensions — at a
// configurable scale and prints one table per figure. With -outdir it
// also writes one CSV per figure and figures.json, the benchmark file
// benchdiff compares. The EXPERIMENTS.md numbers in this repository were
// produced by this command.
//
// Usage:
//
//	sprayall                                  # every figure, laptop scale
//	sprayall -scale 1                         # the paper's problem sizes (slow)
//	sprayall -figure 13 -max-threads 2        # one figure at 1 and 2 threads
//	sprayall -figure 14 -matrix s3dkt3m2.mtx  # a TMV figure on a Matrix Market file
//	sprayall -outdir results/                 # also write fig*.csv and figures.json
//	benchdiff old/figures.json new/figures.json
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"spray"
	"spray/internal/bench"
	"spray/internal/cliutil"
	"spray/internal/experiments"
	"spray/internal/sparse"
)

// figureNames lists the -figure values in the order they run.
var figureNames = []string{"11", "12", "13", "14", "15", "16", "ext"}

func main() {
	var (
		figures    = flag.String("figure", strings.Join(figureNames, ","), "comma-separated figures to run: 11-16 and ext (the beyond-paper strategies)")
		matrix     = flag.String("matrix", "", "Matrix Market file the selected TMV figure (14 or 15) runs on instead of its generated stand-in")
		scale      = flag.Float64("scale", 0.1, "problem size relative to the paper's (1 = conv N=1e7, full s3dkt3m2/debr stand-ins, LULESH 90^3 for 100 cycles)")
		maxThreads = flag.Int("max-threads", 0, "largest thread count (0 = paper's 1..56)")
		outdir     = flag.String("outdir", "", "directory for per-figure CSV files and figures.json")
		repeats    = flag.Int("repeats", 3, "samples per configuration")
		minTime    = flag.Duration("min-time", 100*time.Millisecond, "minimum time per sample")
		schedule   = flag.String("schedule", "", "loop schedule for the conv and tmv figure sweeps (spray.ParseSchedule form, e.g. steal or dynamic:8; default static) — rerun with different values to compare schedules across the bench CSVs")
		metrics    = flag.Bool("metrics", false, "instrument the conv figures: print a telemetry region report per measured point (stderr) and attach counters to CSV-adjacent data")
		prof       cliutil.Profiling
	)
	prof.AddFlags(flag.CommandLine)
	flag.Parse()

	want, err := parseFigures(*figures)
	fatalIf(err)
	if !(*scale > 0) {
		fatalIf(fmt.Errorf("-scale must be positive, got %v", *scale))
	}
	var file *sparse.CSR[float32]
	if *matrix != "" {
		if want["14"] == want["15"] {
			fatalIf(errors.New("-matrix replaces one stand-in: select exactly one of -figure 14 or -figure 15"))
		}
		file, err = readMatrix(*matrix)
		fatalIf(err)
	}
	var sched spray.Schedule // zero value: static, the paper's setup
	if *schedule != "" {
		sched, err = spray.ParseSchedule(*schedule)
		fatalIf(err)
	}

	stopProf, err := prof.Start()
	fatalIf(err)

	// -scale 1 is the paper's setup; LULESH's edge and cycle count grow
	// linearly with the scale and stop at the paper's 90 and 100, so the
	// default 0.1 runs 15^3 for 30 cycles.
	convN := int(math.Round(1e7 * *scale))
	luleshEdge := max(2, min(90, int(math.Round(150**scale))))
	luleshCycles := max(1, min(100, int(math.Round(300**scale))))
	runner := bench.Runner{Repeats: *repeats, MinTime: *minTime}

	fmt.Printf("spray evaluation — GOMAXPROCS=%d, scale=%g\n\n", runtime.GOMAXPROCS(0), *scale)

	convCfg := experiments.DefaultConvConfig(convN, *maxThreads)
	convCfg.Schedule = sched
	convCfg.Runner = runner
	convCfg.Instrument = *metrics
	if *metrics {
		convCfg.OnReport = func(label string, rep spray.RegionReport) {
			fmt.Fprintf(os.Stderr, "-- %s --\n%s\n", label, rep)
		}
	}
	tmv := func(name string) *bench.Result {
		a := file
		if a == nil {
			a = scaleMatrix(name, *scale)
		} else {
			name = filepath.Base(*matrix)
		}
		return experiments.TMV(experiments.TMVConfig{
			Name: name, Matrix: a,
			Threads:    bench.ThreadCounts(*maxThreads),
			Strategies: experiments.DefaultTMVStrategies(),
			Runner:     runner,
			Schedule:   sched,
		})
	}
	// Figure 12 is derived from Figure 11's sweep, so asking for both
	// measures the sweep once.
	var fig11 *bench.Result
	conv := func() *bench.Result {
		if fig11 == nil {
			fig11 = experiments.Fig11(convCfg)
		}
		return fig11
	}
	run := map[string]func() *bench.Result{
		// Figures 11-13: convolution back-propagation.
		"11": conv,
		"12": func() *bench.Result { return experiments.Fig12(conv()) },
		"13": func() *bench.Result {
			f13 := experiments.DefaultFig13Config(convN, *maxThreads)
			f13.ConvConfig = convCfg
			return experiments.Fig13(f13)
		},
		// Figures 14-15: transpose-matrix-vector products.
		"14": func() *bench.Result { return tmv("s3dkt3m2") },
		"15": func() *bench.Result { return tmv("debr") },
		// Figure 16: LULESH.
		"16": func() *bench.Result {
			lcfg := experiments.DefaultLuleshConfig(luleshEdge, luleshCycles, *maxThreads)
			lcfg.Repeats = *repeats
			res, err := experiments.Lulesh(lcfg)
			fatalIf(err)
			return res
		},
		// Beyond-paper strategies on the conv kernel.
		"ext": func() *bench.Result { return experiments.Extensions(convCfg) },
	}

	var results []*bench.Result
	for _, name := range figureNames {
		if !want[name] {
			continue
		}
		res := run[name]()
		res.WriteTable(os.Stdout)
		fmt.Println()
		results = append(results, res)
		if name == "ext" {
			writeOut(*outdir, "extensions.csv", res.WriteCSV)
		} else {
			writeOut(*outdir, "fig"+name+".csv", res.WriteCSV)
		}
	}
	writeOut(*outdir, "figures.json", bench.NewFile(results).Write)

	fatalIf(stopProf())
}

// parseFigures reads the -figure list into a set, refusing unknown names.
func parseFigures(list string) (map[string]bool, error) {
	want := map[string]bool{}
	for _, f := range strings.Split(list, ",") {
		f = strings.TrimSpace(f)
		known := false
		for _, name := range figureNames {
			known = known || f == name
		}
		if !known {
			return nil, fmt.Errorf("unknown figure %q (want %s)", f, strings.Join(figureNames, ", "))
		}
		want[f] = true
	}
	return want, nil
}

func readMatrix(path string) (*sparse.CSR[float32], error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fmt.Fprintf(os.Stderr, "reading %s...\n", path)
	return sparse.ReadMatrixMarket[float32](f)
}

// scaleMatrix generates the paper matrix (scale 1) or a proportionally
// shrunk stand-in for quick runs.
func scaleMatrix(name string, scale float64) *sparse.CSR[float32] {
	fmt.Fprintf(os.Stderr, "generating %s (scale %g)...\n", name, scale)
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

// writeOut writes one output file into outdir (nothing when outdir is
// empty).
func writeOut(outdir, name string, write func(w io.Writer) error) {
	if outdir == "" {
		return
	}
	fatalIf(os.MkdirAll(outdir, 0o755))
	path := filepath.Join(outdir, name)
	f, err := os.Create(path)
	fatalIf(err)
	fatalIf(write(f))
	fatalIf(f.Close())
	fmt.Fprintf(os.Stderr, "wrote %s\n", path)
}

func fatalIf(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "sprayall:", err)
		os.Exit(1)
	}
}

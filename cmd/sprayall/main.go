// Command sprayall runs the evaluation of the SPRAY reproduction — every
// figure of the paper, the beyond-paper extensions, the each-vs-bulk
// comparison and the loop-schedule comparison — at a configurable scale
// and prints one table per result. With -outdir it also writes one CSV
// per result and figures.json, the benchmark file benchdiff compares and
// gates on. The EXPERIMENTS.md numbers in this repository were produced
// by this command.
//
// Usage:
//
//	sprayall                                  # everything, laptop scale
//	sprayall -scale 1                         # the paper's problem sizes (slow)
//	sprayall -figure 13 -threads 1,2          # one figure at 1 and 2 threads
//	sprayall -figure 14 -matrix s3dkt3m2.mtx  # a TMV figure on a Matrix Market file
//	sprayall -figure bulk-conv,bulk-graph     # each vs bulk accumulation
//	sprayall -figure sched -threads 2         # loop schedules on imbalanced legs
//	sprayall -outdir results/                 # also write the CSVs and figures.json
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
var figureNames = []string{"11", "12", "13", "14", "15", "16", "ext", "bulk-conv", "bulk-graph", "sched"}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sprayall", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		figures  = fs.String("figure", strings.Join(figureNames, ","), "comma-separated figures to run: 11-16, ext (the beyond-paper strategies), bulk-conv and bulk-graph (each vs bulk accumulation) and sched (loop schedules on imbalanced legs and a uniform control)")
		matrix   = fs.String("matrix", "", "Matrix Market file the selected TMV figure (14 or 15) runs on instead of its generated stand-in")
		scale    = fs.Float64("scale", 0.1, "problem size relative to the paper's (1 = conv N=1e7, full s3dkt3m2/debr stand-ins, LULESH 90^3 for 100 cycles); the bulk and sched figures run at the conv N")
		threads  = fs.String("threads", "1,2,4,8,16,28,56", "comma-separated thread counts to sweep (default: the paper's)")
		outdir   = fs.String("outdir", "", "directory for per-result CSV files and figures.json")
		repeats  = fs.Int("repeats", 3, "samples per configuration")
		minTime  = fs.Duration("min-time", 100*time.Millisecond, "minimum time per sample")
		schedule = fs.String("schedule", "", "loop schedule for the conv and tmv figure sweeps (spray.ParseSchedule form, e.g. steal or dynamic:8; default static) — rerun with different values to compare schedules across the bench CSVs")
		metrics  = fs.Bool("metrics", false, "instrument every reducer sweep: print a telemetry region report per measured point (stderr) and attach its counters to figures.json")
		prof     cliutil.Profiling
	)
	prof.AddFlags(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "sprayall:", err)
		return 1
	}

	want, err := parseFigures(*figures)
	if err != nil {
		return fail(err)
	}
	ths, err := cliutil.ParseInts(*threads)
	if err != nil {
		return fail(fmt.Errorf("-threads: %w", err))
	}
	if !(*scale > 0) {
		return fail(fmt.Errorf("-scale must be positive, got %v", *scale))
	}
	var file *sparse.CSR[float32]
	if *matrix != "" {
		if want["14"] == want["15"] {
			return fail(errors.New("-matrix replaces one stand-in: select exactly one of -figure 14 or -figure 15"))
		}
		if file, err = readMatrix(stderr, *matrix); err != nil {
			return fail(err)
		}
	}
	var sched spray.Schedule // zero value: static, the paper's setup
	if *schedule != "" {
		if sched, err = spray.ParseSchedule(*schedule); err != nil {
			return fail(err)
		}
	}

	stopProf, err := prof.Start()
	defer stopProf()
	if err != nil {
		return fail(err)
	}

	// -scale 1 is the paper's setup; LULESH's edge and cycle count grow
	// linearly with the scale and stop at the paper's 90 and 100, so the
	// default 0.1 runs 15^3 for 30 cycles.
	convN := int(math.Round(1e7 * *scale))
	luleshEdge := max(2, min(90, int(math.Round(150**scale))))
	luleshCycles := max(1, min(100, int(math.Round(300**scale))))
	runner := bench.Runner{Repeats: *repeats, MinTime: *minTime}

	fmt.Fprintf(stdout, "spray evaluation — GOMAXPROCS=%d, scale=%g\n\n", runtime.GOMAXPROCS(0), *scale)

	convCfg := experiments.DefaultConvConfig(convN, 0)
	convCfg.Threads = ths
	convCfg.Schedule = sched
	convCfg.Runner = runner
	convCfg.Instrument = *metrics
	if *metrics {
		convCfg.OnReport = func(label string, rep spray.RegionReport) {
			fmt.Fprintf(stderr, "-- %s --\n%s\n", label, rep)
		}
	}
	tmv := func(name string) ([]*bench.Result, error) {
		a := file
		if a == nil {
			a = scaleMatrix(stderr, name, *scale)
		} else {
			name = filepath.Base(*matrix)
		}
		return one(experiments.TMV(experiments.TMVConfig{ConvConfig: convCfg, Name: name, Matrix: a}))
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
	figure := map[string]func() ([]*bench.Result, error){
		// Figures 11-13: convolution back-propagation.
		"11": func() ([]*bench.Result, error) { return one(conv()) },
		"12": func() ([]*bench.Result, error) { return one(experiments.Fig12(conv())) },
		"13": func() ([]*bench.Result, error) {
			f13 := experiments.DefaultFig13Config(convN, 0)
			f13.ConvConfig = convCfg
			return one(experiments.Fig13(f13))
		},
		// Figures 14-15: transpose-matrix-vector products.
		"14": func() ([]*bench.Result, error) { return tmv("s3dkt3m2") },
		"15": func() ([]*bench.Result, error) { return tmv("debr") },
		// Figure 16: LULESH.
		"16": func() ([]*bench.Result, error) {
			lcfg := experiments.DefaultLuleshConfig(luleshEdge, luleshCycles, 0)
			lcfg.Threads = ths
			lcfg.Runner = runner
			res, err := experiments.Lulesh(lcfg)
			return []*bench.Result{res}, err
		},
		// Beyond-paper strategies on the conv kernel.
		"ext": func() ([]*bench.Result, error) { return one(experiments.Extensions(convCfg)) },
		// Each vs bulk accumulation.
		"bulk-conv":  func() ([]*bench.Result, error) { return one(experiments.BulkConv(convCfg)) },
		"bulk-graph": func() ([]*bench.Result, error) { return one(experiments.BulkGraph(convCfg)) },
		// Loop schedules: three imbalanced legs and the uniform control.
		"sched": func() ([]*bench.Result, error) {
			icfg := experiments.DefaultImbalanceConfig(convCfg)
			lres, err := experiments.ImbalanceLulesh(icfg)
			if err != nil {
				return nil, err
			}
			return []*bench.Result{experiments.ImbalanceSkew(icfg), experiments.ImbalanceTMV(icfg),
				lres, experiments.ImbalanceConv(icfg)}, nil
		},
	}

	var all []*bench.Result
	for _, name := range figureNames {
		if !want[name] {
			continue
		}
		results, err := figure[name]()
		if err != nil {
			return fail(err)
		}
		for i, res := range results {
			res.WriteTable(stdout)
			fmt.Fprintln(stdout)
			if err := writeOut(stderr, *outdir, csvName(name, i, len(results)), res.WriteCSV); err != nil {
				return fail(err)
			}
		}
		all = append(all, results...)
	}
	if err := writeOut(stderr, *outdir, "figures.json", bench.NewFile(all).Write); err != nil {
		return fail(err)
	}
	if err := stopProf(); err != nil {
		return fail(err)
	}
	return 0
}

// one wraps a figure that produces a single result.
func one(res *bench.Result) ([]*bench.Result, error) { return []*bench.Result{res}, nil }

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

// csvName names the CSV file of result i of the n that figure name
// produced: fig11.csv, extensions.csv, bulk-conv.csv, sched-1.csv, ...
func csvName(name string, i, n int) string {
	switch {
	case name == "ext":
		name = "extensions"
	case name[0] >= '0' && name[0] <= '9':
		name = "fig" + name
	}
	if n > 1 {
		name += fmt.Sprintf("-%d", i+1)
	}
	return name + ".csv"
}

func readMatrix(log io.Writer, path string) (*sparse.CSR[float32], error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fmt.Fprintf(log, "reading %s...\n", path)
	return sparse.ReadMatrixMarket[float32](f)
}

// scaleMatrix generates the paper matrix (scale 1) or a proportionally
// shrunk stand-in for quick runs.
func scaleMatrix(log io.Writer, name string, scale float64) *sparse.CSR[float32] {
	fmt.Fprintf(log, "generating %s (scale %g)...\n", name, scale)
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
func writeOut(log io.Writer, outdir, name string, write func(w io.Writer) error) error {
	if outdir == "" {
		return nil
	}
	if err := os.MkdirAll(outdir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(outdir, name)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(log, "wrote %s\n", path)
	return nil
}

// Command benchmark is the repository's benchmark: four paper workloads
// driven through the public reducer API on a 2-member team, each step
// paired with a sequential control and checked against a sequential
// reference. Build and run it from the repository root with
//
//	bash benchmark/run.sh --workload conv-bulk --seed 1 --seconds 25 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 reports the
// per-layer metrics from a run whose reducer is wrapped in a tracing
// layer, and --spans FILE additionally writes that run's spans as Chrome
// trace-event JSON. Without --workload every workload runs in turn. The
// last line of the output is a JSON object with the keys correct,
// attempted, failed and metrics. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the reducers sees, reported by an
// untraced run. BENCHMARK.json gives each its direction and bound.
var endToEnd = []metricDef{
	{"speedup_vs_seq", "x"},
	{"tail_vs_seq", "x"},
	{"peak_extra_bytes", "B"},
	{"alloc_bytes_per_step", "B"},
	{"setup_s", "s"},
}

// perLayer are the metrics of single layers, reported by a traced run.
// A metric whose layer is off the workload's path, or out of the
// benchmark's sight (LULESH builds its reducers itself), reads 0.
var perLayer = []metricDef{
	{"par.dispatch_us", "us"},
	{"par.join_us", "us"},
	{"par.empty_region_us", "us"},
	{"par.regions_per_step", "count"},
	{"par.join_wait_us", "us"},
	{"par.imbalance", "ratio"},
	{"par.region_share", "ratio"},
	{"core.new_us", "us"},
	{"core.private_us", "us"},
	{"core.done_us", "us"},
	{"core.finalize_us", "us"},
	{"core.accumulate_us", "us"},
	{"core.ns_per_update", "ns"},
	{"core.updates_per_step", "count"},
	{"core.calls_per_step", "count"},
	{"core.computed_gbps", "GB/s"},
	{"core.drain_us", "us"},
	{"core.keeper_foreign_share", "ratio"},
	{"core.block_fallback_share", "ratio"},
	{"core.cas_retries_per_update", "ratio"},
	{"conv.compute_us", "us"},
	{"sparse.compute_us", "us"},
	{"lulesh.serial_us", "us"},
	{"runtime.gc_per_1k_steps", "count"},
	{"runtime.gc_pause_us_per_step", "us"},
	{"seq.ns_per_update", "ns"},
	{"wall.step_p50_us", "us"},
	{"wall.step_p99_us", "us"},
	{"seq.step_p50_us", "us"},
	{"setup.inputs_s", "s"},
	{"setup.reducer_us", "us"},
	{"setup.warmup_s", "s"},
	{"trace.overhead", "ratio"},
	{"trace.ledger_residual", "ratio"},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: conv-bulk, conv-oneshot, tmv-banded or lulesh (default: all in turn)")
	seed := fs.Int64("seed", 1, "seed of the generated inputs")
	seconds := fs.Float64("seconds", defaultParams.seconds, "measuring time per workload")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	spans := fs.String("spans", "", "with --trace 1, write the traced spans as Chrome trace-event JSON to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || (*trace != 0 && *trace != 1) || !(*seconds > 0) || (*spans != "" && *trace != 1) {
		fmt.Fprintln(stderr, "benchmark: want --trace 0|1, --seconds > 0, --spans only with --trace 1, and no arguments")
		return 2
	}
	ws := make([]*workload, 0, len(workloads))
	if *name == "" {
		for i := range workloads {
			ws = append(ws, &workloads[i])
		}
	} else {
		w, err := findWorkload(*name)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 2
		}
		ws = append(ws, w)
	}
	p := defaultParams
	p.seconds = *seconds
	ok, err := runAll(ws, *seed, p, *trace == 1, *spans, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if !ok {
		return 1
	}
	return 0
}

// runAll runs each workload, printing its metric lines and then its
// result object. It reports whether every check passed.
func runAll(ws []*workload, seed int64, p params, traced bool, spansPath string, out io.Writer) (bool, error) {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	allOK := true
	var tracedRuns []*result
	for _, w := range ws {
		res := runWorkload(w, seed, p, traced)
		fmt.Fprintln(out, res.describe(seed, p))
		if w.name == "lulesh" {
			fmt.Fprintln(out, "# lulesh has no seeded input: the Sedov problem is deterministic, so --seed only labels the run")
		}
		line, err := res.resultLine(defs, out)
		if err != nil {
			return false, err
		}
		fmt.Fprintf(out, "# %s checks attempted=%d failed=%d error_rate=%s\n",
			w.name, res.attempted, res.failed, strconv.FormatFloat(res.errorRate(), 'g', -1, 64))
		fmt.Fprintln(out, line)
		allOK = allOK && res.failed == 0
		if res.tracer != nil {
			tracedRuns = append(tracedRuns, res)
		}
	}
	if spansPath != "" {
		if err := writeSpans(spansPath, tracedRuns); err != nil {
			return false, err
		}
	}
	return allOK, nil
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// resultLine prints one "<workload> <metric> <value> <unit>" line per
// metric and returns the result object as one JSON line.
func (r *result) resultLine(defs []metricDef, out io.Writer) (string, error) {
	obj := jsonResult{
		Correct:   r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]jsonMetric, len(defs)),
	}
	for i, d := range defs {
		v := r.metrics[i].value
		if r.metrics[i].name != d.name || math.IsNaN(v) || math.IsInf(v, 0) {
			return "", fmt.Errorf("%s: bad metric %s = %v", r.workload, r.metrics[i].name, v)
		}
		fmt.Fprintf(out, "%s %s %s %s\n", r.workload, d.name, strconv.FormatFloat(v, 'g', -1, 64), d.unit)
		obj.Metrics[d.name] = jsonMetric{Value: v, Unit: d.unit}
	}
	b, err := json.Marshal(obj)
	return string(b), err
}

// writeSpans writes the spans of every traced workload into one Chrome
// trace file, one process per workload.
func writeSpans(path string, traced []*result) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	if _, err := io.WriteString(f, "{\"traceEvents\":[\n"); err != nil {
		return err
	}
	for i, r := range traced {
		if i > 0 {
			if _, err := io.WriteString(f, ",\n"); err != nil {
				return err
			}
		}
		if err := r.tracer.writeChrome(f, r.workload, i+1); err != nil {
			return err
		}
	}
	_, err = io.WriteString(f, "\n],\"displayTimeUnit\":\"ns\"}\n")
	return err
}

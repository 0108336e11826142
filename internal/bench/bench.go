// Package bench is the measurement harness behind cmd/sprayall and
// cmd/benchdiff: auto-calibrated repeated timing of every measured point
// (in the spirit of the Google benchmark library the paper uses),
// thread-count sweeps, table/CSV rendering of result series, the
// host-stamped JSON file sprayall writes and the noise-banded diff
// benchdiff gates on.
package bench

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"spray/internal/stats"
)

// Runner controls measurement: every sample runs the workload enough
// times to exceed MinTime (calibrated once), and Repeats samples are
// collected — the paper repeats runs at least 10 times and reports means.
type Runner struct {
	Repeats int
	MinTime time.Duration
}

// DefaultRunner mirrors the paper's methodology at laptop scale.
func DefaultRunner() Runner { return Runner{Repeats: 5, MinTime: 200 * time.Millisecond} }

// AutoBench calibrates an iteration count so one sample lasts at least
// MinTime, then reports per-iteration seconds over Repeats samples.
// f must run its workload exactly iters times.
func (r Runner) AutoBench(f func(iters int)) stats.Summary {
	minTime := r.MinTime
	if minTime <= 0 {
		minTime = 100 * time.Millisecond
	}
	iters := 1
	for {
		start := time.Now()
		f(iters)
		if el := time.Since(start); el >= minTime || iters >= 1<<30 {
			break
		}
		iters *= 2
	}
	reps := r.Repeats
	if reps < 1 {
		reps = 1
	}
	samples := make([]float64, reps)
	for i := range samples {
		start := time.Now()
		f(iters)
		samples[i] = time.Since(start).Seconds() / float64(iters)
	}
	return stats.Of(samples)
}

// ThreadCounts returns the sweep used throughout the paper's figures —
// 1, 2, 4, 8, 16, 28, 56 — truncated at max (0 keeps the full list).
// On hardware with fewer cores the sweep still runs; oversubscribed
// points measure scheduling and strategy overhead rather than speedup.
func ThreadCounts(max int) []int {
	all := []int{1, 2, 4, 8, 16, 28, 56}
	if max <= 0 {
		return all
	}
	var out []int
	for _, n := range all {
		if n <= max {
			out = append(out, n)
		}
	}
	if len(out) == 0 || out[len(out)-1] != max {
		out = append(out, max)
	}
	return out
}

// Point is one measured configuration of a series.
type Point struct {
	X     float64 // thread count, block size, ...
	Time  stats.Summary
	Bytes int64 // strategy memory overhead
	// Counters carries the non-zero telemetry counters accumulated while
	// the point was measured (nil when the run was not instrumented).
	// They appear in the JSON output only; the text table and CSV keep
	// their layout.
	Counters map[string]uint64 `json:",omitempty"`
}

// Series is one line of a figure: a named strategy across the sweep.
type Series struct {
	Name   string
	Points []Point
}

// Result is one reproduced figure: several series over a common x-axis
// plus free-form notes (e.g. sequential baseline, substitutions).
type Result struct {
	Title    string
	XLabel   string
	Baseline float64 // sequential reference seconds per op (0 = none)
	Series   []Series
	Notes    []string
}

// AddPoint appends a measurement to the named series, creating it on
// first use.
func (r *Result) AddPoint(series string, p Point) {
	for i := range r.Series {
		if r.Series[i].Name == series {
			r.Series[i].Points = append(r.Series[i].Points, p)
			return
		}
	}
	r.Series = append(r.Series, Series{Name: series, Points: []Point{p}})
}

// WriteTable renders the result as aligned text: one row per x value,
// one time column (and one memory column when any point reports bytes)
// per series. Speedup over the baseline is shown when a baseline exists.
func (r *Result) WriteTable(w io.Writer) {
	fmt.Fprintf(w, "== %s ==\n", r.Title)
	if r.Baseline > 0 {
		fmt.Fprintf(w, "sequential baseline: %s per op\n", fmtSeconds(r.Baseline))
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	xs := r.xValues()
	hasMem := r.hasMemory()

	header := []string{r.XLabel}
	for _, s := range r.Series {
		header = append(header, s.Name)
		if r.Baseline > 0 {
			header = append(header, "spdup")
		}
		if hasMem {
			header = append(header, "mem")
		}
	}
	rows := [][]string{header}
	for _, x := range xs {
		row := []string{trimFloat(x)}
		for _, s := range r.Series {
			p, ok := s.point(x)
			if !ok {
				row = append(row, "-")
				if r.Baseline > 0 {
					row = append(row, "-")
				}
				if hasMem {
					row = append(row, "-")
				}
				continue
			}
			row = append(row, fmtSeconds(p.Time.Mean))
			if r.Baseline > 0 {
				row = append(row, fmt.Sprintf("%.2fx", stats.Speedup(r.Baseline, p.Time.Mean)))
			}
			if hasMem {
				row = append(row, FormatBytes(p.Bytes))
			}
		}
		rows = append(rows, row)
	}
	writeAligned(w, rows)
}

// WriteCSV renders the result as CSV with columns
// series,x,mean_s,min_s,max_s,stddev_s,bytes.
func (r *Result) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "series,x,mean_s,min_s,max_s,stddev_s,bytes"); err != nil {
		return err
	}
	for _, s := range r.Series {
		for _, p := range s.Points {
			if _, err := fmt.Fprintf(w, "%s,%g,%g,%g,%g,%g,%d\n",
				s.Name, p.X, p.Time.Mean, p.Time.Min, p.Time.Max, p.Time.Stddev, p.Bytes); err != nil {
				return err
			}
		}
	}
	return nil
}

func (s *Series) point(x float64) (Point, bool) {
	for _, p := range s.Points {
		if p.X == x {
			return p, true
		}
	}
	return Point{}, false
}

func (r *Result) xValues() []float64 {
	seen := map[float64]bool{}
	var xs []float64
	for _, s := range r.Series {
		for _, p := range s.Points {
			if !seen[p.X] {
				seen[p.X] = true
				xs = append(xs, p.X)
			}
		}
	}
	sort.Float64s(xs)
	return xs
}

func (r *Result) hasMemory() bool {
	for _, s := range r.Series {
		for _, p := range s.Points {
			if p.Bytes != 0 {
				return true
			}
		}
	}
	return false
}

func writeAligned(w io.Writer, rows [][]string) {
	if len(rows) == 0 {
		return
	}
	widths := make([]int, len(rows[0]))
	for _, row := range rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	for _, row := range rows {
		var b strings.Builder
		for i, cell := range row {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(fmt.Sprintf("%*s", widths[i], cell))
		}
		fmt.Fprintln(w, b.String())
	}
}

func trimFloat(x float64) string {
	s := fmt.Sprintf("%g", x)
	return s
}

// FormatSeconds renders a duration in seconds with a human unit.
func FormatSeconds(s float64) string { return fmtSeconds(s) }

func fmtSeconds(s float64) string {
	switch {
	case s <= 0:
		return "0"
	case s < 1e-6:
		return fmt.Sprintf("%.1fns", s*1e9)
	case s < 1e-3:
		return fmt.Sprintf("%.2fus", s*1e6)
	case s < 1:
		return fmt.Sprintf("%.3fms", s*1e3)
	default:
		return fmt.Sprintf("%.3fs", s)
	}
}

// FormatBytes renders byte counts with binary units.
func FormatBytes(b int64) string {
	neg := ""
	if b < 0 {
		neg, b = "-", -b
	}
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%s%.2fGiB", neg, float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%s%.2fMiB", neg, float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%s%.2fKiB", neg, float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%s%dB", neg, b)
	}
}

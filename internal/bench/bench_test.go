package bench

import (
	"bytes"
	"encoding/csv"
	"strconv"
	"strings"
	"testing"
	"time"

	"spray/internal/stats"
)

func TestThreadCounts(t *testing.T) {
	if got := ThreadCounts(0); len(got) != 7 || got[6] != 56 {
		t.Errorf("full sweep = %v", got)
	}
	if got := ThreadCounts(8); len(got) != 4 || got[3] != 8 {
		t.Errorf("max 8 = %v", got)
	}
	// A max that is not in the canonical list is appended.
	got := ThreadCounts(6)
	if got[len(got)-1] != 6 {
		t.Errorf("max 6 = %v", got)
	}
	if got := ThreadCounts(1); len(got) != 1 || got[0] != 1 {
		t.Errorf("max 1 = %v", got)
	}
}

func TestAutoBenchCalibratesAndReports(t *testing.T) {
	r := Runner{Repeats: 3, MinTime: 20 * time.Millisecond}
	calls := 0
	perOp := r.AutoBench(func(iters int) {
		calls++
		time.Sleep(time.Duration(iters) * time.Millisecond)
	})
	if calls < 4 { // calibration doublings + 3 samples
		t.Errorf("only %d calls", calls)
	}
	// Per-op time should be near 1ms.
	if perOp.Mean < 0.5e-3 || perOp.Mean > 5e-3 {
		t.Errorf("per-op mean %v, want ~1ms", perOp.Mean)
	}
	if perOp.N != 3 {
		t.Errorf("samples %d", perOp.N)
	}
}

func TestAddPointGroupsBySeries(t *testing.T) {
	r := &Result{}
	r.AddPoint("a", Point{X: 1})
	r.AddPoint("b", Point{X: 1})
	r.AddPoint("a", Point{X: 2})
	if len(r.Series) != 2 {
		t.Fatalf("series count %d", len(r.Series))
	}
	if len(r.Series[0].Points) != 2 || r.Series[0].Name != "a" {
		t.Errorf("series a: %+v", r.Series[0])
	}
}

func TestWriteTableContainsSeriesAndSpeedup(t *testing.T) {
	r := &Result{Title: "demo", XLabel: "threads", Baseline: 1.0}
	r.AddPoint("fast", Point{X: 1, Time: mkSummary(0.5), Bytes: 1 << 20})
	r.AddPoint("fast", Point{X: 2, Time: mkSummary(0.25), Bytes: 2 << 20})
	r.AddPoint("slow", Point{X: 1, Time: mkSummary(2.0)})
	var buf bytes.Buffer
	r.WriteTable(&buf)
	out := buf.String()
	for _, want := range []string{"demo", "threads", "fast", "slow", "2.00x", "0.50x", "1.00MiB", "baseline"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
	// The slow series has no x=2 point: the cell must show "-".
	if !strings.Contains(out, "-") {
		t.Errorf("missing placeholder for absent point:\n%s", out)
	}
}

func TestWriteCSVRoundTrip(t *testing.T) {
	r := &Result{Title: "demo", XLabel: "x"}
	r.AddPoint("s1", Point{X: 4, Time: mkSummary(0.125), Bytes: 77})
	var buf bytes.Buffer
	if err := r.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("lines: %v", lines)
	}
	if lines[0] != "series,x,mean_s,min_s,max_s,stddev_s,bytes" {
		t.Errorf("header %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "s1,4,0.125,") || !strings.HasSuffix(lines[1], ",77") {
		t.Errorf("row %q", lines[1])
	}
}

func TestFormatBytes(t *testing.T) {
	cases := map[int64]string{
		0:        "0B",
		512:      "512B",
		2048:     "2.00KiB",
		3 << 20:  "3.00MiB",
		5 << 30:  "5.00GiB",
		-1 << 20: "-1.00MiB",
	}
	for in, want := range cases {
		if got := FormatBytes(in); got != want {
			t.Errorf("FormatBytes(%d)=%q, want %q", in, got, want)
		}
	}
}

func TestFmtSeconds(t *testing.T) {
	cases := map[float64]string{
		0:      "0",
		5e-9:   "5.0ns",
		2.5e-6: "2.50us",
		1e-3:   "1.000ms",
		1.5:    "1.500s",
	}
	for in, want := range cases {
		if got := fmtSeconds(in); got != want {
			t.Errorf("fmtSeconds(%v)=%q, want %q", in, got, want)
		}
	}
}

func mkSummary(mean float64) stats.Summary {
	return stats.Summary{N: 1, Mean: mean, Min: mean, Max: mean, Median: mean}
}

// TestCSVRoundTrip parses WriteCSV's output with encoding/csv and checks
// the header and every point's series, x, mean and bytes columns.
func TestCSVRoundTrip(t *testing.T) {
	orig := &Result{Title: "t", XLabel: "threads"}
	orig.AddPoint("a", Point{X: 1, Time: mkSummary(0.5), Bytes: 100})
	orig.AddPoint("a", Point{X: 2, Time: mkSummary(0.25), Bytes: 200})
	orig.AddPoint("b", Point{X: 1, Time: mkSummary(1.5)})
	var buf bytes.Buffer
	if err := orig.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"series", "x", "mean_s", "min_s", "max_s", "stddev_s", "bytes"}
	if len(rows) != 4 || len(rows[0]) != len(want) {
		t.Fatalf("rows %v", rows)
	}
	for i, h := range want {
		if rows[0][i] != h {
			t.Errorf("column %d is %q, want %q", i, rows[0][i], h)
		}
	}
	row := 1
	for _, s := range orig.Series {
		for _, p := range s.Points {
			got := rows[row]
			row++
			x, _ := strconv.ParseFloat(got[1], 64)
			mean, _ := strconv.ParseFloat(got[2], 64)
			n, _ := strconv.ParseInt(got[6], 10, 64)
			if got[0] != s.Name || x != p.X || mean != p.Time.Mean || n != p.Bytes {
				t.Errorf("series %s point %v: row %v", s.Name, p.X, got)
			}
		}
	}
}

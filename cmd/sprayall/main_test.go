package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"spray/internal/bench"
)

// TestBulkAndSchedFigures runs the two figures the gates record at the
// smallest scale and checks figures.json holds every result and series
// they diff against, one point per thread count.
func TestBulkAndSchedFigures(t *testing.T) {
	dir := t.TempDir()
	var out, errb bytes.Buffer
	args := []string{"-figure", "bulk-conv,sched", "-scale", "0.001", "-threads", "2",
		"-repeats", "1", "-min-time", "1ms", "-outdir", dir}
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("exit %d\nstderr: %s", code, errb.String())
	}
	f, err := bench.ReadFile(filepath.Join(dir, "figures.json"))
	if err != nil {
		t.Fatal(err)
	}
	schedules := []string{"static", "dynamic(1)", "guided(1)", "steal"}
	want := []struct {
		title  string
		series []string
	}{
		{"Bulk fast path: conv back-propagation, each vs bulk (N=10000)", []string{
			"dense/each", "dense/bulk", "atomic/each", "atomic/bulk",
			"block-cas-1024/each", "block-cas-1024/bulk", "keeper/each", "keeper/bulk"}},
		{"Schedule comparison: front-loaded skew (N=10000, heavy first 1250)", schedules},
		{"Schedule comparison: skewed banded TMV (1250x1250, 7581 nnz)", schedules},
		{"Schedule comparison: LULESH 10^3, 4 cycles", schedules},
		{"Schedule comparison: uniform conv back-propagation (N=10000)", schedules},
	}
	if len(f.Results) != len(want) {
		t.Fatalf("%d results, want %d", len(f.Results), len(want))
	}
	for i, w := range want {
		res := f.Results[i]
		if res.Title != w.title {
			t.Errorf("result %d: title %q, want %q", i, res.Title, w.title)
		}
		var names []string
		for _, s := range res.Series {
			names = append(names, s.Name)
			if len(s.Points) != 1 || s.Points[0].X != 2 || s.Points[0].Time.Mean <= 0 {
				t.Errorf("%s / %s: points %+v, want one timed point at x=2", res.Title, s.Name, s.Points)
			}
		}
		if strings.Join(names, ",") != strings.Join(w.series, ",") {
			t.Errorf("%s: series %v, want %v", res.Title, names, w.series)
		}
	}
}

func TestRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-figure", "99"},
		{"-figure", "11", "-threads", "2,x"},
		{"-figure", "11", "-threads", "0"},
		{"-figure", "11", "-threads", ""},
	} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code == 0 {
			t.Errorf("%v accepted:\n%s", args, out.String())
		}
	}
}

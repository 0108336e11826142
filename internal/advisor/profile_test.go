package advisor

import (
	"strings"
	"testing"

	"spray"
	"spray/internal/hotspot"
	"spray/internal/par"
)

// The sketch-vs-exact accuracy tests: run a real keeper reduction with
// the contention profiler sampling every call, then replay the identical
// access pattern through the advisor's exact tapes and check that the
// sampled top-K hot lines recover the exactly-computed conflicted lines
// (the ISSUE acceptance bar is >= 80% overlap at K=16). The keeper makes
// the comparison deterministic: its foreign submissions are exactly the
// updates that cross the static ownership partition, and in both
// workloads below the cross-partition updates are the cross-thread
// conflicted updates.

const accuracyK = 16

// overlapFraction returns |sampled ∩ exact| / |exact|.
func overlapFraction(sampled []hotspot.LineStat, exact []int) float64 {
	if len(exact) == 0 {
		return 1
	}
	in := map[int]bool{}
	for _, l := range sampled {
		in[l.Line] = true
	}
	hit := 0
	for _, ln := range exact {
		if in[ln] {
			hit++
		}
	}
	return float64(hit) / float64(len(exact))
}

// runKeeperProfiled drives body through a real keeper reduction over
// [lo, hi) with every profiler call sampled, and returns the profile.
func runKeeperProfiled(t *testing.T, n, threads, lo, hi int, body func(acc spray.Accessor[float64], i int)) *hotspot.Profile {
	t.Helper()
	out := make([]float64, n)
	team := spray.NewTeam(threads)
	r := spray.New(spray.Keeper(), out, threads)
	in := spray.Instrument(team, r)
	defer in.Detach()
	in.EnableHotspot(n, spray.HotspotOptions{SamplePeriod: 1, TopK: 64})
	spray.RunReduction(team, r, lo, hi, spray.Static(), func(acc spray.Accessor[float64], from, to int) {
		for i := from; i < to; i++ {
			body(acc, i)
		}
	})
	prof := in.HotspotProfile()
	if prof == nil {
		t.Fatal("no hotspot profile")
	}
	return prof
}

// replayExact records the same loop over the same static partition into
// advisor tapes and returns the exact top-K conflicted lines.
func replayExact(n, threads, lo, hi, lineElems int, body func(tape Tape, i int)) []int {
	rec := NewRecorder(n, threads, 0)
	for tid := 0; tid < threads; tid++ {
		from, to := par.StaticRange(lo, hi, tid, threads)
		tape := rec.Tape(tid)
		for i := from; i < to; i++ {
			body(tape, i)
		}
	}
	return rec.TopConflictLines(accuracyK, lineElems)
}

func TestHotspotAccuracyConvBackprop(t *testing.T) {
	// The paper's conv back-propagation shape: iteration i taps i-1, i,
	// i+1, so conflicts concentrate on the chunk-boundary cache lines.
	const n, threads = 1 << 14, 8
	prof := runKeeperProfiled(t, n, threads, 1, n-1, func(acc spray.Accessor[float64], i int) {
		acc.Add(i-1, 1)
		acc.Add(i, 1)
		acc.Add(i+1, 1)
	})
	if prof.Totals["keeper-foreign"] == 0 {
		t.Fatal("keeper recorded no foreign submissions — nothing to compare")
	}
	exact := replayExact(n, threads, 1, n-1, prof.LineElems, func(tape Tape, i int) {
		tape.Add(i-1, 1)
		tape.Add(i, 1)
		tape.Add(i+1, 1)
	})
	if len(exact) == 0 {
		t.Fatal("exact replay found no conflicted lines")
	}
	if ov := overlapFraction(prof.TopLines(accuracyK), exact); ov < 0.8 {
		t.Fatalf("conv overlap = %.2f, want >= 0.8 (sampled %+v, exact %v)",
			ov, prof.TopLines(accuracyK), exact)
	}
}

func TestHotspotAccuracyBandedTMV(t *testing.T) {
	// Banded transposed matrix-vector: row i scatters into the column
	// band [i-bw, i+bw], so each static row-boundary smears conflicts
	// over a 2*bw-element region.
	const n, threads, bw = 1 << 14, 8, 4
	band := func(i int) (int, int) {
		lo, hi := i-bw, i+bw+1
		if lo < 0 {
			lo = 0
		}
		if hi > n {
			hi = n
		}
		return lo, hi
	}
	prof := runKeeperProfiled(t, n, threads, 0, n, func(acc spray.Accessor[float64], i int) {
		lo, hi := band(i)
		for j := lo; j < hi; j++ {
			acc.Add(j, 1)
		}
	})
	if prof.Totals["keeper-foreign"] == 0 {
		t.Fatal("keeper recorded no foreign submissions — nothing to compare")
	}
	exact := replayExact(n, threads, 0, n, prof.LineElems, func(tape Tape, i int) {
		lo, hi := band(i)
		for j := lo; j < hi; j++ {
			tape.Add(j, 1)
		}
	})
	if len(exact) == 0 {
		t.Fatal("exact replay found no conflicted lines")
	}
	if ov := overlapFraction(prof.TopLines(accuracyK), exact); ov < 0.8 {
		t.Fatalf("tmv overlap = %.2f, want >= 0.8 (sampled %+v, exact %v)",
			ov, prof.TopLines(accuracyK), exact)
	}
}

func TestTopConflictLinesExact(t *testing.T) {
	// Hand pattern: threads 0 and 1 both hit indices 8 and 9 (line 1),
	// thread 0 alone hammers index 100 (line 12) — uncontended, so the
	// heavy line must NOT appear.
	rec := NewRecorder(1024, 2, 0)
	t0, t1 := rec.Tape(0), rec.Tape(1)
	for i := 0; i < 50; i++ {
		t0.Add(100, 1)
	}
	t0.Add(8, 1)
	t0.Add(9, 1)
	t1.Add(8, 1)
	t1.Add(9, 1)
	t0.Add(16, 1) // line 2, contended once
	t1.Add(16, 1)
	got := rec.TopConflictLines(4, 8)
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("TopConflictLines = %v, want [1 2]", got)
	}
}

func TestRecommendFromProfileLadder(t *testing.T) {
	base := func() *hotspot.Profile {
		return &hotspot.Profile{
			SchemaVersion: hotspot.ProfileSchemaVersion,
			Strategy:      "keeper", N: 1 << 20, Threads: 8,
			LineElems: 8, NumLines: 1 << 17,
			Updates: 1 << 20,
			Totals:  map[string]uint64{}, Sampled: map[string]uint64{},
		}
	}
	cases := []struct {
		name  string
		prof  *hotspot.Profile
		want  spray.Strategy
		wordy string
	}{
		{"nil profile", nil, spray.Auto(spray.DefaultBlockSize), "no signal"},
		{"no conflicts", base(), spray.Atomic(), "zero conflict"},
		{"negligible rate", func() *hotspot.Profile {
			p := base()
			p.Totals["cas-retry"] = 100 // 0.01% of updates
			return p
		}(), spray.Atomic(), "negligible"},
		{"keeper fits", func() *hotspot.Profile {
			p := base()
			p.Totals["keeper-foreign"] = p.Updates / 50 // 2% foreign
			return p
		}(), spray.Keeper(), "ownership"},
		{"ownership mismatch", func() *hotspot.Profile {
			p := base()
			p.Totals["keeper-foreign"] = p.Updates / 2 // 50% foreign
			return p
		}(), spray.BlockCAS(spray.DefaultBlockSize), "ownership"},
		{"compiled exchange", func() *hotspot.Profile {
			p := base()
			p.Totals["plan-exchange"] = p.Updates / 4
			return p
		}(), spray.Planned(spray.Keeper()), "compiled"},
		{"sharply concentrated retries", func() *hotspot.Profile {
			p := base()
			p.Totals["cas-retry"] = p.Updates / 4
			p.Sampled["cas-retry"] = 1000
			p.Lines = []hotspot.LineStat{{Line: 7, Index: 56, Count: 900}}
			return p
		}(), spray.Auto(spray.DefaultBlockSize), "hot lines"},
		{"moderately concentrated retries", func() *hotspot.Profile {
			p := base()
			p.Totals["cas-retry"] = p.Updates / 4
			p.Sampled["cas-retry"] = 1000
			p.Lines = []hotspot.LineStat{{Line: 7, Index: 56, Count: 600}}
			return p
		}(), spray.Auto(spray.DefaultBlockSize), "hot lines"},
		{"all-cold sketch, heavy rate", func() *hotspot.Profile {
			p := base()
			p.Totals["cas-retry"] = p.Updates / 2 // 50%, but no hot lines
			p.Sampled["cas-retry"] = 1000
			return p
		}(), spray.BlockPrivate(spray.DefaultBlockSize), "no hot lines"},
		{"all-cold sketch, moderate rate", func() *hotspot.Profile {
			p := base()
			p.Totals["cas-retry"] = p.Updates / 10 // 10%, but no hot lines
			return p
		}(), spray.Auto(spray.DefaultBlockSize), "no spatial signal"},
		{"diffuse retries", func() *hotspot.Profile {
			p := base()
			p.Totals["cas-retry"] = p.Updates / 4
			p.Sampled["cas-retry"] = 100000
			for ln := 0; ln < 32; ln++ {
				p.Lines = append(p.Lines, hotspot.LineStat{Line: ln, Index: ln * 8, Count: 100})
			}
			return p
		}(), spray.BlockPrivate(spray.DefaultBlockSize), "diffuse"},
	}
	for _, tc := range cases {
		rec := RecommendFromProfile(tc.prof)
		if rec.Strategy != tc.want {
			t.Errorf("%s: recommended %v (%s), want %v", tc.name, rec.Strategy, rec.Reason, tc.want)
		}
		if !strings.Contains(rec.Reason, tc.wordy) {
			t.Errorf("%s: reason %q does not mention %q", tc.name, rec.Reason, tc.wordy)
		}
	}
}

func TestProfileConcentration(t *testing.T) {
	p := &hotspot.Profile{
		Sampled: map[string]uint64{"cas-retry": 1000},
		Lines: []hotspot.LineStat{
			{Line: 1, Count: 600},
			{Line: 2, Count: 300},
			{Line: 3, Count: 50},
		},
	}
	if c := ProfileConcentration(p, 2); c < 0.89 || c > 0.91 {
		t.Fatalf("concentration = %v, want 0.9", c)
	}
	if c := ProfileConcentration(nil, 2); c != 0 {
		t.Fatalf("nil concentration = %v", c)
	}
	if c := ProfileConcentration(&hotspot.Profile{}, 2); c != 0 {
		t.Fatalf("empty concentration = %v", c)
	}
}

func TestRecommendFromProfileEndToEnd(t *testing.T) {
	// A real keeper run with few foreign updates must come back as
	// "keep the keeper".
	const n, threads = 1 << 14, 8
	prof := runKeeperProfiled(t, n, threads, 1, n-1, func(acc spray.Accessor[float64], i int) {
		acc.Add(i-1, 1)
		acc.Add(i, 1)
		acc.Add(i+1, 1)
	})
	rec := RecommendFromProfile(prof)
	if rec.Strategy != spray.Keeper() {
		t.Fatalf("recommended %v (%s), want keeper", rec.Strategy, rec.Reason)
	}
}

package spray

import (
	"math"
	"math/rand"
	"testing"

	"spray/internal/num"
	"spray/internal/telemetry"
)

// plannedWorkload is one iterative scatter workload: each region replays
// the same batches through RunReduction, the shape the plan wrapper is
// built for.
type plannedWorkload struct {
	n       int
	batches [][]int32
	vals    [][]float64
	want    []float64 // per-region reference delta
}

func genPlannedWorkload(seed int64, n, batches, m int) plannedWorkload {
	rng := rand.New(rand.NewSource(seed))
	w := plannedWorkload{n: n, want: make([]float64, n)}
	for b := 0; b < batches; b++ {
		idx := make([]int32, m)
		vals := make([]float64, m)
		for j := range idx {
			idx[j] = int32(rng.Intn(n))
			vals[j] = float64(rng.Intn(9) - 4)
			w.want[idx[j]] += vals[j]
		}
		w.batches = append(w.batches, idx)
		w.vals = append(w.vals, vals)
	}
	return w
}

// runPlannedRegion drives one region of the workload through RunReduction
// (so the chunker, mid-drain wiring, and team finalize are all the real
// thing).
func (w plannedWorkload) run(team *Team, r Reducer[float64]) {
	RunReduction(team, r, 0, len(w.batches), Static(),
		func(acc Accessor[float64], from, to int) {
			bacc := Bulk(acc)
			for b := from; b < to; b++ {
				bacc.Scatter(w.batches[b], w.vals[b])
			}
		})
}

// TestPlannedStrategyEndToEnd is the public-API acceptance check: for
// every inner strategy, plan+inner through RunReduction matches the bare inner
// strategy exactly over repeated regions — the executor regions bypass
// the inner strategy but may not change a single bit on exact data.
func TestPlannedStrategyEndToEnd(t *testing.T) {
	const n, regions, threads = 6000, 5, 4
	w := genPlannedWorkload(21, n, 32, 400)
	for _, inner := range []Strategy{
		Atomic(), BlockCAS(256), Keeper(), Compensated(), Dense(),
	} {
		st := Planned(inner)
		outBare := make([]float64, n)
		outPlan := make([]float64, n)
		want := make([]float64, n)
		teamA := NewTeam(threads)
		teamB := NewTeam(threads)
		bare := New(inner, outBare, threads)
		planned := New(st, outPlan, threads)
		if planned.Name() != st.String() {
			t.Errorf("Name = %q, strategy prints %q", planned.Name(), st.String())
		}
		for reg := 0; reg < regions; reg++ {
			w.run(teamA, bare)
			w.run(teamB, planned)
			for i := range want {
				want[i] += w.want[i]
			}
			if d := num.MaxAbsDiff(outPlan, want); d != 0 {
				t.Fatalf("%s region %d: diff vs reference %v", st, reg, d)
			}
			for i := range outBare {
				if math.Float64bits(outBare[i]) != math.Float64bits(outPlan[i]) {
					t.Fatalf("%s region %d: out[%d] bare=%x plan=%x", st, reg, i,
						math.Float64bits(outBare[i]), math.Float64bits(outPlan[i]))
				}
			}
		}
		teamA.Close()
		teamB.Close()
	}
}

// TestPlannedStrategyParsePrint pins the "plan+" naming contract.
func TestPlannedStrategyParsePrint(t *testing.T) {
	for _, name := range []string{"plan+atomic", "plan+keeper", "plan+block-cas-512", "plan+compensated"} {
		st, err := ParseStrategy(name)
		if err != nil {
			t.Fatalf("ParseStrategy(%q): %v", name, err)
		}
		if st.String() != name {
			t.Errorf("ParseStrategy(%q).String() = %q", name, st.String())
		}
	}
	if _, err := ParseStrategy("plan+plan+atomic"); err == nil {
		t.Error("double plan+ wrapper parsed")
	}
	if _, err := ParseStrategy("plan+nonsense"); err == nil {
		t.Error("plan+nonsense parsed")
	}
}

// TestPlannedRunReductionTelemetry checks the full public path: counters
// arrive through Instrument, and the amortization story is visible —
// one miss with a compile sample, then hits.
func TestPlannedRunReductionTelemetry(t *testing.T) {
	const n, regions, threads = 4096, 6, 3
	w := genPlannedWorkload(33, n, 24, 256)
	out := make([]float64, n)
	team := NewTeam(threads)
	defer team.Close()
	r := New(Planned(Keeper()), out, threads)
	in := Instrument(team, r)
	defer in.Detach()
	for reg := 0; reg < regions; reg++ {
		w.run(team, r)
	}
	rep := in.Report()
	if got := rep.Counters.Get(telemetry.PlanMisses); got != 1 {
		t.Errorf("plan-misses = %d, want 1", got)
	}
	if got := rep.Counters.Get(telemetry.PlanHits); got != regions-1 {
		t.Errorf("plan-hits = %d, want %d", got, regions-1)
	}
	if h := rep.Latencies[telemetry.PlanCompile]; h.Count != 1 {
		t.Errorf("plan-compile-latency samples = %d, want 1", h.Count)
	}
	if rep.Bytes == 0 {
		t.Error("report bytes = 0 with a live plan")
	}
}

// TestPlannedChangingBoundsInvalidates runs the same body over changing
// loop bounds: the pattern changes every region, so the wrapper must
// keep producing exact results while degrading to passthrough.
func TestPlannedChangingBoundsInvalidates(t *testing.T) {
	const n, threads = 2048, 3
	out := make([]float64, n)
	want := make([]float64, n)
	team := NewTeam(threads)
	defer team.Close()
	r := New(Planned(Atomic()), out, threads)
	for reg := 0; reg < 8; reg++ {
		hi := n - reg*100
		RunReduction(team, r, 0, hi, Static(),
			func(acc Accessor[float64], from, to int) {
				for i := from; i < to; i++ {
					acc.Add(i, 1)
					acc.Add((i*31)%hi, 2)
				}
			})
		for i := 0; i < hi; i++ {
			want[i]++
			want[(i*31)%hi] += 2
		}
		if d := num.MaxAbsDiff(out, want); d != 0 {
			t.Fatalf("region %d: diff %v", reg, d)
		}
	}
}

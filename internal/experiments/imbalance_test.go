package experiments

import (
	"testing"

	"spray"
	"spray/internal/bench"
	"spray/internal/num"
	"spray/internal/sparse"
)

func quickImbalanceConfig() ImbalanceConfig {
	base := DefaultConvConfig(20_000, 2)
	base.Runner = quickRunner()
	cfg := DefaultImbalanceConfig(base)
	cfg.Edge = 6
	cfg.Cycles = 2
	return cfg
}

// checkScheduleSeries asserts one series per configured schedule, one
// point per thread count, positive times throughout.
func checkScheduleSeries(t *testing.T, name string, cfg ImbalanceConfig, res *bench.Result) {
	t.Helper()
	if len(res.Series) != len(cfg.Schedules) {
		t.Fatalf("%s: series %d, want %d", name, len(res.Series), len(cfg.Schedules))
	}
	for i, s := range res.Series {
		if want := cfg.Schedules[i].String(); s.Name != want {
			t.Errorf("%s: series %d named %q, want schedule %q", name, i, s.Name, want)
		}
		if len(s.Points) != len(cfg.Threads) {
			t.Errorf("%s: series %s has %d points, want %d", name, s.Name, len(s.Points), len(cfg.Threads))
		}
		for _, p := range s.Points {
			if p.Time.Mean <= 0 {
				t.Errorf("%s: series %s x=%v: non-positive time", name, s.Name, p.X)
			}
		}
	}
}

func TestImbalanceSkewSeries(t *testing.T) {
	cfg := quickImbalanceConfig()
	cfg.Instrument = true
	var sawSteal bool
	cfg.OnReport = func(label string, rep spray.RegionReport) {
		if rep.Counters.Get(0) >= 0 { // any report proves the plumbing
			sawSteal = true
		}
	}
	checkScheduleSeries(t, "skew", cfg, ImbalanceSkew(cfg))
	if !sawSteal {
		t.Error("telemetry enabled but no reports delivered")
	}
}

func TestImbalanceTMVSeries(t *testing.T) {
	cfg := quickImbalanceConfig()
	checkScheduleSeries(t, "tmv", cfg, ImbalanceTMV(cfg))
}

func TestImbalanceConvSeries(t *testing.T) {
	cfg := quickImbalanceConfig()
	res := ImbalanceConv(cfg)
	if res.Baseline <= 0 {
		t.Error("conv leg has no sequential baseline")
	}
	checkScheduleSeries(t, "conv", cfg, res)
}

func TestImbalanceLuleshSeries(t *testing.T) {
	cfg := quickImbalanceConfig()
	res, err := ImbalanceLulesh(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkScheduleSeries(t, "lulesh", cfg, res)
}

// TestSkewedBandedShape pins the generator the TMV leg relies on: the
// leading block really is denser, rows are sorted CSR with in-range
// columns, and the transpose product matches a dense reference.
func TestSkewedBandedShape(t *testing.T) {
	const rows = 2048
	a := skewedBanded(rows, 4, 32, 100, 3)
	if a.Rows != rows || a.Cols != rows {
		t.Fatalf("shape %dx%d, want %dx%d", a.Rows, a.Cols, rows, rows)
	}
	block := rows / imbalanceHeavyFrac
	var heavyNNZ, restNNZ int64
	for i := 0; i < a.Rows; i++ {
		lo, hi := a.RowPtr[i], a.RowPtr[i+1]
		if i < block {
			heavyNNZ += hi - lo
		} else {
			restNNZ += hi - lo
		}
		for k := lo; k < hi; k++ {
			if c := a.Col[k]; c < 0 || int(c) >= a.Cols {
				t.Fatalf("row %d: column %d out of range", i, c)
			}
		}
	}
	heavyPerRow := float64(heavyNNZ) / float64(block)
	restPerRow := float64(restNNZ) / float64(a.Rows-block)
	if heavyPerRow < 4*restPerRow {
		t.Errorf("heavy rows %.1f nnz, rest %.1f nnz: skew below 4x", heavyPerRow, restPerRow)
	}

	// Transpose product against a dense reference.
	x := vecOnes(a.Rows)
	want := make([]float32, a.Cols)
	for i := 0; i < a.Rows; i++ {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			want[a.Col[k]] += a.Val[k] * x[i]
		}
	}
	y := make([]float32, a.Cols)
	team := spray.NewTeam(2)
	defer team.Close()
	r := spray.New(spray.Keeper(), y, 2)
	sparse.RunTMulVecSched(team, r, a, x, spray.Steal(0))
	if d := num.MaxAbsDiff(y, want); d > 1e-3 {
		t.Errorf("skewed banded TMV diverges from dense reference: %v", d)
	}
}

package experiments

import (
	"strings"
	"testing"
	"time"

	"spray"
	"spray/internal/bench"
	"spray/internal/sparse"
)

func quickRunner() bench.Runner {
	return bench.Runner{Repeats: 1, MinTime: time.Millisecond}
}

func quickConvConfig() ConvConfig {
	cfg := DefaultConvConfig(10_000, 2)
	cfg.Runner = quickRunner()
	cfg.Strategies = []spray.Strategy{spray.Atomic(), spray.Keeper()}
	return cfg
}

func TestFig11ProducesAllSeries(t *testing.T) {
	cfg := quickConvConfig()
	res := Fig11(cfg)
	if res.Baseline <= 0 {
		t.Error("no sequential baseline")
	}
	if len(res.Series) != len(cfg.Strategies) {
		t.Fatalf("series %d, want %d", len(res.Series), len(cfg.Strategies))
	}
	for _, s := range res.Series {
		if len(s.Points) != len(cfg.Threads) {
			t.Errorf("series %s has %d points, want %d", s.Name, len(s.Points), len(cfg.Threads))
		}
		for _, p := range s.Points {
			if p.Time.Mean <= 0 {
				t.Errorf("series %s x=%v: non-positive time", s.Name, p.X)
			}
		}
	}
}

func TestFig12PicksBestPerStrategy(t *testing.T) {
	cfg := quickConvConfig()
	res := Fig12(Fig11(cfg))
	if len(res.Series) != len(cfg.Strategies) {
		t.Fatalf("series %d", len(res.Series))
	}
	for _, s := range res.Series {
		if len(s.Points) != 1 {
			t.Errorf("series %s has %d points, want 1", s.Name, len(s.Points))
		}
		if !strings.Contains(s.Name, "@") || !strings.Contains(s.Name, "T") {
			t.Errorf("series name %q missing best-thread annotation", s.Name)
		}
	}
}

func TestFig13SweepsBlockSizes(t *testing.T) {
	cfg := DefaultFig13Config(10_000, 1)
	cfg.Runner = quickRunner()
	cfg.BlockSizes = []int{64, 1024}
	res := Fig13(cfg)
	wantSeries := 3 + 2*3 // map, btree, keeper + 2 sizes x 3 block modes
	if len(res.Series) != wantSeries {
		t.Fatalf("series %d, want %d", len(res.Series), wantSeries)
	}
	names := map[string]bool{}
	for _, s := range res.Series {
		names[s.Name] = true
	}
	for _, want := range []string{"map", "btree", "keeper", "block-cas-64", "block-private-1024"} {
		if !names[want] {
			t.Errorf("missing series %q in %v", want, names)
		}
	}
}

func TestTMVIncludesMKLBaselines(t *testing.T) {
	a := sparse.Banded[float32](2000, 2000, 9, 40, 1)
	cfg := TMVConfig{
		Name:       "test",
		Matrix:     a,
		Threads:    []int{1, 2},
		Strategies: []spray.Strategy{spray.Atomic()},
		Runner:     quickRunner(),
	}
	res := TMV(cfg)
	names := map[string]int{}
	for _, s := range res.Series {
		names[s.Name] = len(s.Points)
	}
	for _, want := range []string{"atomic", "mkl-legacy", "mkl-ie", "mkl-ie-hint"} {
		if names[want] != 2 {
			t.Errorf("series %q has %d points, want 2 (all: %v)", want, names[want], names)
		}
	}
	// The hinted inspector must report matrix-copy-scale memory, far
	// above every SPRAY point on this small matrix.
	for _, s := range res.Series {
		if s.Name != "mkl-ie-hint" {
			continue
		}
		for _, p := range s.Points {
			if p.Bytes < a.Bytes()/2 {
				t.Errorf("mkl-ie-hint bytes %d below half the matrix (%d)", p.Bytes, a.Bytes())
			}
		}
	}
}

func TestLuleshExperiment(t *testing.T) {
	cfg := LuleshConfig{
		Edge: 4, Cycles: 3,
		Threads: []int{1, 2},
		Schemes: []string{"original", "block-cas-256"},
		Repeats: 1,
	}
	res, err := Lulesh(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 2 {
		t.Fatalf("series %d", len(res.Series))
	}
	for _, s := range res.Series {
		if len(s.Points) != 2 {
			t.Errorf("series %s points %d", s.Name, len(s.Points))
		}
	}
	// The original scheme must report its 8-copy memory.
	for _, s := range res.Series {
		if s.Name == "lulesh-original" && s.Points[0].Bytes == 0 {
			t.Error("original scheme reported zero memory")
		}
	}
}

func TestLuleshBadSchemeName(t *testing.T) {
	_, err := Lulesh(LuleshConfig{
		Edge: 3, Cycles: 1, Threads: []int{1},
		Schemes: []string{"no-such-strategy"}, Repeats: 1,
	})
	if err == nil {
		t.Error("bad scheme name accepted")
	}
}

func TestConvSequentialBaselinePositive(t *testing.T) {
	cfg := quickConvConfig()
	if b := ConvSequentialBaseline(cfg); b <= 0 {
		t.Errorf("baseline %v", b)
	}
}

func TestExtensionsExperiment(t *testing.T) {
	cfg := quickConvConfig()
	res := Extensions(cfg)
	names := map[string]bool{}
	for _, s := range res.Series {
		names[s.Name] = true
	}
	for _, want := range []string{"ordered", "compensated", "dense", "atomic"} {
		if !names[want] {
			t.Errorf("missing series %q", want)
		}
	}
	// Ordered must report the largest memory (log of every update).
	var orderedBytes, blockBytes int64
	for _, s := range res.Series {
		for _, p := range s.Points {
			switch s.Name {
			case "ordered":
				if p.Bytes > orderedBytes {
					orderedBytes = p.Bytes
				}
			case "block-cas-1024":
				if p.Bytes > blockBytes {
					blockBytes = p.Bytes
				}
			}
		}
	}
	if orderedBytes <= blockBytes {
		t.Errorf("ordered bytes %d not above block %d", orderedBytes, blockBytes)
	}
}

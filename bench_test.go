package spray_test

// One testing.B benchmark family per figure of the paper's evaluation,
// at sizes that let `go test -bench=.` finish on a laptop. cmd/sprayall
// runs the same experiments (`-figure 11` … `-figure 16`, `-scale 1` for
// paper scale) and produces the EXPERIMENTS.md tables.
//
//	Figure 11/12: BenchmarkFig11Conv        (absolute times per strategy x threads;
//	                                         Fig. 12 is the best-per-strategy view)
//	Figure 13:    BenchmarkFig13BlockSizes  (block-size sweep)
//	Figure 14:    BenchmarkFig14S3DKT3M2    (banded-matrix transpose SpMV + MKL baselines)
//	Figure 15:    BenchmarkFig15Debr        (broad-band matrix transpose SpMV)
//	Figure 16:    BenchmarkFig16Lulesh      (mini-LULESH force schemes)

import (
	"fmt"
	"math/rand"
	"testing"

	"spray"
	"spray/internal/conv"
	"spray/internal/fem"
	"spray/internal/lulesh"
	"spray/internal/mesh"
	"spray/internal/mkl"
	"spray/internal/par"
	"spray/internal/sparse"
)

var benchThreads = []int{1, 2, 4}

func convSeed(n int) []float32 {
	rng := rand.New(rand.NewSource(42))
	s := make([]float32, n)
	for i := range s {
		s[i] = rng.Float32()
	}
	return s
}

var benchWeights = conv.Weights3[float32]{WL: 0.25, WC: 0.5, WR: 0.25}

func BenchmarkFig11Conv(b *testing.B) {
	const n = 1 << 20
	seed := convSeed(n)
	out := make([]float32, n)

	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchWeights.BackpropSeq(seed, out)
		}
		b.SetBytes(int64(n * 4))
	})
	strategies := []spray.Strategy{
		spray.Builtin(), spray.Dense(), spray.Atomic(),
		spray.BlockLock(1024), spray.BlockCAS(1024), spray.Keeper(),
	}
	for _, st := range strategies {
		for _, th := range benchThreads {
			b.Run(fmt.Sprintf("%s/threads=%d", st, th), func(b *testing.B) {
				team := spray.NewTeam(th)
				defer team.Close()
				r := spray.New(st, out, th)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					benchWeights.RunBackprop(team, r, seed)
				}
				b.SetBytes(int64(n * 4))
				b.ReportMetric(float64(r.PeakBytes()), "strategy-bytes")
			})
		}
	}
}

func BenchmarkFig13BlockSizes(b *testing.B) {
	const n = 1 << 20
	const threads = 4
	seed := convSeed(n)
	out := make([]float32, n)
	var strategies []spray.Strategy
	for _, bs := range []int{16, 256, 1024, 16384} {
		strategies = append(strategies,
			spray.BlockPrivate(bs), spray.BlockLock(bs), spray.BlockCAS(bs))
	}
	strategies = append(strategies, spray.Map(), spray.BTree(0), spray.Keeper())
	for _, st := range strategies {
		b.Run(st.String(), func(b *testing.B) {
			team := spray.NewTeam(threads)
			defer team.Close()
			r := spray.New(st, out, threads)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchWeights.RunBackprop(team, r, seed)
			}
			b.SetBytes(int64(n * 4))
			b.ReportMetric(float64(r.PeakBytes()), "strategy-bytes")
		})
	}
}

// benchTMV runs the Figure 14/15 benchmark body on the given matrix.
func benchTMV(b *testing.B, a *sparse.CSR[float32]) {
	x := make([]float32, a.Rows)
	for i := range x {
		x[i] = 1
	}
	y := make([]float32, a.Cols)

	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			a.TMulVecSeq(x, y)
		}
	})
	strategies := []spray.Strategy{
		spray.Builtin(), spray.Dense(), spray.Atomic(),
		spray.BlockLock(1024), spray.BlockCAS(1024), spray.Keeper(),
	}
	for _, st := range strategies {
		for _, th := range benchThreads {
			b.Run(fmt.Sprintf("%s/threads=%d", st, th), func(b *testing.B) {
				team := spray.NewTeam(th)
				defer team.Close()
				r := spray.New(st, y, th)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					sparse.RunTMulVec(team, r, a, x)
				}
				b.ReportMetric(float64(r.PeakBytes()), "strategy-bytes")
			})
		}
	}
	for _, th := range benchThreads {
		b.Run(fmt.Sprintf("mkl-legacy/threads=%d", th), func(b *testing.B) {
			team := par.NewTeam(th)
			defer team.Close()
			for i := 0; i < b.N; i++ {
				mkl.LegacyTMulVec(team, a, x, y)
			}
		})
		b.Run(fmt.Sprintf("mkl-ie/threads=%d", th), func(b *testing.B) {
			team := par.NewTeam(th)
			defer team.Close()
			h := mkl.NewHandle(a)
			h.Optimize()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h.ExecuteTMulVec(team, x, y)
			}
		})
		b.Run(fmt.Sprintf("mkl-ie-hint/threads=%d", th), func(b *testing.B) {
			team := par.NewTeam(th)
			defer team.Close()
			h := mkl.NewHandle(a)
			h.SetHint(mkl.Hint{Transpose: true})
			h.Optimize() // inspection excluded, as in the paper
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h.ExecuteTMulVec(team, x, y)
			}
			b.ReportMetric(float64(h.ExtraBytes()), "strategy-bytes")
		})
	}
}

func BenchmarkFig14S3DKT3M2(b *testing.B) {
	// Proportionally shrunk s3dkt3m2-like banded matrix (same per-row
	// density and band character; pass -scale 1 to cmd/sprayall for full
	// scale).
	a := sparse.Banded[float32](9045, 9045, 21, 600, 1)
	benchTMV(b, a)
}

func BenchmarkFig15Debr(b *testing.B) {
	// Shrunk debr-like broad-band matrix.
	a := sparse.Banded[float32](104858, 104858, 4, 50000, 1)
	benchTMV(b, a)
}

func BenchmarkFig16Lulesh(b *testing.B) {
	const edge, cycles = 10, 10
	params := lulesh.Defaults()
	params.MaxCycles = cycles

	schemes := map[string]func() lulesh.ForceScheme{
		"original":        lulesh.Original,
		"omp-builtin":     func() lulesh.ForceScheme { return lulesh.Spray(spray.Builtin()) },
		"dense":           func() lulesh.ForceScheme { return lulesh.Spray(spray.Dense()) },
		"atomic":          func() lulesh.ForceScheme { return lulesh.Spray(spray.Atomic()) },
		"block-lock-1024": func() lulesh.ForceScheme { return lulesh.Spray(spray.BlockLock(1024)) },
		"block-cas-1024":  func() lulesh.ForceScheme { return lulesh.Spray(spray.BlockCAS(1024)) },
		"keeper":          func() lulesh.ForceScheme { return lulesh.Spray(spray.Keeper()) },
	}
	for name, mk := range schemes {
		for _, th := range benchThreads {
			b.Run(fmt.Sprintf("%s/threads=%d", name, th), func(b *testing.B) {
				team := par.NewTeam(th)
				defer team.Close()
				fs := mk()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					d := lulesh.New(edge, params)
					if _, err := d.Run(team, fs); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(fs.PeakBytes()), "strategy-bytes")
			})
		}
	}
}

// BenchmarkAblationSchedules quantifies the paper's §IV remark that SPRAY
// works with any schedule but the schedule affects performance (small
// chunks hurt locality): the same block-CAS reduction under different
// schedules and chunk sizes.
func BenchmarkAblationSchedules(b *testing.B) {
	const n = 1 << 20
	const threads = 4
	seed := convSeed(n)
	out := make([]float32, n)
	schedules := map[string]spray.Schedule{
		"static":            spray.Static(),
		"static-chunk-8":    spray.StaticChunk(8),
		"static-chunk-4096": spray.StaticChunk(4096),
		"dynamic-1":         spray.Dynamic(1),
		"dynamic-1024":      spray.Dynamic(1024),
		"guided":            spray.Guided(64),
	}
	for name, sched := range schedules {
		b.Run(name, func(b *testing.B) {
			team := spray.NewTeam(threads)
			defer team.Close()
			r := spray.New(spray.BlockCAS(1024), out, threads)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				spray.RunReduction(team, r, 1, n-1, sched,
					func(acc spray.Accessor[float32], from, to int) {
						for j := from; j < to; j++ {
							s := seed[j]
							acc.Add(j-1, 0.25*s)
							acc.Add(j, 0.5*s)
							acc.Add(j+1, 0.25*s)
						}
					})
			}
			b.ReportMetric(float64(r.PeakBytes()), "strategy-bytes")
		})
	}
}

// BenchmarkAblationFinalize quantifies the design choice DESIGN.md calls
// out for the dense strategies: combining private copies serially (the
// compiler-modeled Builtin) vs. with the team (Dense.FinalizeWith).
func BenchmarkAblationFinalize(b *testing.B) {
	const n = 1 << 20
	const threads = 4
	out := make([]float64, n)
	for name, st := range map[string]spray.Strategy{
		"serial-combine(builtin)": spray.Builtin(),
		"team-combine(dense)":     spray.Dense(),
	} {
		b.Run(name, func(b *testing.B) {
			team := spray.NewTeam(threads)
			defer team.Close()
			r := spray.New(st, out, threads)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				spray.RunReduction(team, r, 0, n, spray.Static(),
					func(acc spray.Accessor[float64], from, to int) {
						for j := from; j < to; j++ {
							acc.Add(j, 1)
						}
					})
			}
		})
	}
}

// BenchmarkAblationAddDispatch quantifies the cost of the Accessor
// abstraction itself (the analogue of the paper's observation that SPRAY
// atomics are 5-10% slower than raw OpenMP atomics when the compiler
// cannot eliminate the abstraction): raw slice writes vs dense-, atomic-
// and block-cas-reducer Adds on one thread. The block-cas rung walks
// 1024-element blocks in order, so it measures Add's window hit path.
func BenchmarkAblationAddDispatch(b *testing.B) {
	const n = 1 << 16
	out := make([]float64, n)
	b.Run("raw-slice-add", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			out[i&(n-1)] += 1
		}
	})
	b.Run("dense-accessor-add", func(b *testing.B) {
		r := spray.New(spray.Dense(), out, 1)
		acc := r.Private(0)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			acc.Add(i&(n-1), 1)
		}
		acc.Done()
		r.Finalize()
	})
	b.Run("atomic-accessor-add", func(b *testing.B) {
		r := spray.New(spray.Atomic(), out, 1)
		acc := r.Private(0)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			acc.Add(i&(n-1), 1)
		}
		acc.Done()
		r.Finalize()
	})
	b.Run("block-cas-accessor-add", func(b *testing.B) {
		r := spray.New(spray.BlockCAS(1024), out, 1)
		acc := r.Private(0)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			acc.Add(i&(n-1), 1)
		}
		acc.Done()
		r.Finalize()
	})
}

// bulkBenchStrategies are the strategies whose AddN/Scatter overrides
// have a structural shortcut worth measuring against the per-element
// loop (atomic rides along as the no-memory reference).
var bulkBenchStrategies = []spray.Strategy{
	spray.Dense(), spray.Atomic(), spray.BlockCAS(1024), spray.Keeper(),
}

// BenchmarkBulkConv compares the element-wise Add loop against tiled
// AddN batches on the conv back-propagation workload. cmd/spraybulk runs
// the same comparison at larger scale and emits BENCH_bulk.json.
func BenchmarkBulkConv(b *testing.B) {
	const n = 1 << 20
	seed := convSeed(n)
	out := make([]float32, n)
	for _, st := range bulkBenchStrategies {
		for _, th := range benchThreads {
			b.Run(fmt.Sprintf("%s/each/threads=%d", st, th), func(b *testing.B) {
				team := spray.NewTeam(th)
				defer team.Close()
				r := spray.New(st, out, th)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					benchWeights.RunBackpropEach(team, r, seed)
				}
				b.SetBytes(int64(n * 4))
			})
			b.Run(fmt.Sprintf("%s/bulk/threads=%d", st, th), func(b *testing.B) {
				team := spray.NewTeam(th)
				defer team.Close()
				r := spray.New(st, out, th)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					benchWeights.RunBackprop(team, r, seed)
				}
				b.SetBytes(int64(n * 4))
			})
		}
	}
}

// BenchmarkBulkTMV compares one Add per nonzero against one Scatter per
// CSR row on the transpose-matrix-vector workload.
func BenchmarkBulkTMV(b *testing.B) {
	a := sparse.Graph[float32](1<<17, 8, 99)
	x := make([]float32, a.Rows)
	for i := range x {
		x[i] = 1
	}
	y := make([]float32, a.Cols)
	for _, st := range bulkBenchStrategies {
		for _, th := range benchThreads {
			b.Run(fmt.Sprintf("%s/each/threads=%d", st, th), func(b *testing.B) {
				team := spray.NewTeam(th)
				defer team.Close()
				r := spray.New(st, y, th)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					sparse.RunTMulVecEach(team, r, a, x)
				}
			})
			b.Run(fmt.Sprintf("%s/bulk/threads=%d", st, th), func(b *testing.B) {
				team := spray.NewTeam(th)
				defer team.Close()
				r := spray.New(st, y, th)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					sparse.RunTMulVec(team, r, a, x)
				}
			})
		}
	}
}

// BenchmarkFemAssembly measures the FEM matrix-assembly workload (the
// paper's Figure 1 pattern) under the competitive strategies — an
// extension workload, not a paper figure.
func BenchmarkFemAssembly(b *testing.B) {
	m := mesh.NewHex(12, 1)
	p := fem.NewProblem(m)
	for _, st := range []spray.Strategy{
		spray.Atomic(), spray.BlockCAS(1024), spray.Keeper(), spray.Dense(),
	} {
		for _, th := range benchThreads {
			b.Run(fmt.Sprintf("%s/threads=%d", st, th), func(b *testing.B) {
				team := spray.NewTeam(th)
				defer team.Close()
				b.ResetTimer()
				var r spray.Reducer[float64]
				for i := 0; i < b.N; i++ {
					r = p.Assemble(team, st)
				}
				b.ReportMetric(float64(r.PeakBytes()), "strategy-bytes")
			})
		}
	}
}

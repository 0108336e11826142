package spray_test

// Benchmarks with no sprayall figure behind them: the ablations of the
// paper's design remarks (schedules, finalize, Accessor dispatch) and
// the FEM assembly extension workload. Every figure of the evaluation —
// 11-16, the extensions, the each-vs-bulk comparison and the schedule
// comparison — runs through cmd/sprayall (`-figure ...`, `-scale 1` for
// paper scale), which produces the EXPERIMENTS.md tables.

import (
	"fmt"
	"math/rand"
	"testing"

	"spray"
	"spray/internal/fem"
	"spray/internal/mesh"
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

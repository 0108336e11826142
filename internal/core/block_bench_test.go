package core

import (
	"math/rand"
	"slices"
	"testing"
)

// scatterBatches is a stream of gathered batches: batch r is
// idx[ptr[r]:ptr[r+1]] with its values at the same positions of vals.
type scatterBatches struct {
	n    int // output length
	ptr  []int
	idx  []int32
	vals []float32
}

// bandedBatches is the transpose product's batch stream on an
// s3dkt3m2-like banded matrix: row r scatters perRow distinct sorted
// columns drawn from [r-halfBand, r+halfBand], the diagonal included.
func bandedBatches(rows, perRow, halfBand int, seed int64) scatterBatches {
	rng := rand.New(rand.NewSource(seed))
	s := scatterBatches{n: rows, ptr: make([]int, 1, rows+1)}
	cols := make([]int32, 0, perRow)
	for r := 0; r < rows; r++ {
		lo, hi := max(0, r-halfBand), min(rows-1, r+halfBand)
		want := min(perRow, hi-lo+1)
		cols = append(cols[:0], int32(r))
		for len(cols) < want {
			j := int32(lo + rng.Intn(hi-lo+1))
			if k, found := slices.BinarySearch(cols, j); !found {
				cols = slices.Insert(cols, k, j)
			}
		}
		for _, j := range cols {
			s.idx = append(s.idx, j)
			s.vals = append(s.vals, float32(0.01+rng.Float64()))
		}
		s.ptr = append(s.ptr, len(s.idx))
	}
	return s
}

// randomBatches is batches of size uniformly random indices into n
// outputs, one update per output on average.
func randomBatches(n, size int, seed int64) scatterBatches {
	rng := rand.New(rand.NewSource(seed))
	s := scatterBatches{n: n, ptr: make([]int, 1, n/size+1)}
	for len(s.idx) < n {
		for k := 0; k < size; k++ {
			s.idx = append(s.idx, int32(rng.Intn(n)))
			s.vals = append(s.vals, float32(0.01+rng.Float64()))
		}
		s.ptr = append(s.ptr, len(s.idx))
	}
	return s
}

// BenchmarkBlockScatter measures block-cas-1024 Scatter against dense
// Scatter and the plain `out[i] += v` loop at one member, one full batch
// stream (a Private, every batch, a Finalize) per iteration. banded has
// the shape of the tmv-banded benchmark workload's matrix, whose rows
// span 2-3 blocks; random is 16-index batches with almost no locality.
func BenchmarkBlockScatter(b *testing.B) {
	patterns := []struct {
		name string
		s    scatterBatches
	}{
		{"banded", bandedBatches(90449, 21, 600, 1)},
		{"random", randomBatches(1<<18, 16, 1)},
	}
	for _, pt := range patterns {
		s := pt.s
		out := make([]float32, s.n)
		reducers := []struct {
			name string
			r    Reducer[float32]
		}{
			{"block-cas-1024", NewBlock(out, 1, 1024, BlockCAS)},
			{"dense", NewDense(out, 1)},
		}
		perUpdate := func(b *testing.B) {
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(s.idx)), "ns/update")
		}
		for _, rc := range reducers {
			b.Run(pt.name+"/"+rc.name, func(b *testing.B) {
				for it := 0; it < b.N; it++ {
					acc := AsBulk(rc.r.Private(0))
					for r := 0; r+1 < len(s.ptr); r++ {
						k0, k1 := s.ptr[r], s.ptr[r+1]
						acc.Scatter(s.idx[k0:k1], s.vals[k0:k1])
					}
					acc.Done()
					rc.r.Finalize()
				}
				perUpdate(b)
			})
		}
		b.Run(pt.name+"/loop", func(b *testing.B) {
			for it := 0; it < b.N; it++ {
				for r := 0; r+1 < len(s.ptr); r++ {
					k0, k1 := s.ptr[r], s.ptr[r+1]
					vals := s.vals[k0:k1]
					for k, i := range s.idx[k0:k1] {
						out[i] += vals[k]
					}
				}
			}
			perUpdate(b)
		})
	}
}

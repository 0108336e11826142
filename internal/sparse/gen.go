package sparse

import (
	"math/rand"

	"spray/internal/num"
)

// The two matrices of the paper's transpose-matrix-vector evaluation are
// not redistributable inside this offline workspace, so the generators
// below synthesize matrices with the same performance-determining
// properties: dimensions, nonzero count, and bandwidth (which controls
// whether the result vector fits in cache and how much update locality /
// conflict a reduction strategy sees). The Matrix Market reader in mm.go
// loads the real files when available.

// S3DKT3M2Like mirrors the Matrix Market s3dkt3m2 matrix: 90,449
// rows/columns and ~1.9M stored entries concentrated in a narrow band
// (a finite-element shell problem, "almost diagonal" per the paper).
func S3DKT3M2Like[T num.Float](seed int64) *CSR[T] {
	return Banded[T](90449, 90449, 21, 600, seed)
}

// DebrLike mirrors the UF collection debr matrix: 1,048,576 rows/columns
// and ~4.1M entries with a broad band, too large for cache.
func DebrLike[T num.Float](seed int64) *CSR[T] {
	return Banded[T](1048576, 1048576, 4, 500000, seed)
}

// Banded generates a rows×cols matrix with avgPerRow entries per row
// placed uniformly inside a band of half-width halfBand around the
// diagonal. Values are uniform in (0, 1]. The pattern is structurally
// symmetric-ish in distribution but stored and used as a general matrix,
// exactly how the paper treats its symmetric inputs.
func Banded[T num.Float](rows, cols, avgPerRow, halfBand int, seed int64) *CSR[T] {
	rng := rand.New(rand.NewSource(seed))
	c := NewCOO[T](rows, cols)
	for i := 0; i < rows; i++ {
		// Always keep the diagonal (when it exists) so rows are nonempty.
		if i < cols {
			c.Add(i, i, T(rng.Float64()+0.5))
		}
		for e := 1; e < avgPerRow; e++ {
			off := rng.Intn(2*halfBand+1) - halfBand
			j := i + off
			if j < 0 || j >= cols {
				continue
			}
			c.Add(i, j, T(rng.Float64()+0.01))
		}
	}
	return FromCOO(c)
}

// Graph generates the CSR adjacency matrix of a random directed graph
// with out-degree spread following a crude power law, a stand-in for the
// GAP-style PageRank workload the paper cites as the graph analogue of
// transpose-SpMV.
func Graph[T num.Float](nodes, avgDegree int, seed int64) *CSR[T] {
	rng := rand.New(rand.NewSource(seed))
	c := NewCOO[T](nodes, nodes)
	for u := 0; u < nodes; u++ {
		deg := 1 + rng.Intn(2*avgDegree)
		if rng.Intn(32) == 0 { // occasional hub
			deg *= 8
		}
		for e := 0; e < deg; e++ {
			var v int
			if rng.Intn(4) == 0 { // preferential-ish: low ids are popular
				v = rng.Intn(1 + nodes/16)
			} else {
				v = rng.Intn(nodes)
			}
			c.Add(u, v, 1)
		}
	}
	return FromCOO(c)
}

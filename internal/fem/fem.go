// Package fem implements parallel finite-element matrix and vector
// assembly over the hexahedral mesh substrate — the workload the paper's
// Figure 1 depicts: every element adds its local contributions into
// global arrays whose entries are shared with neighboring elements, so
// concurrent assembly is a sparse reduction with heavy overlap. The
// package assembles the standard trilinear-hex stiffness matrix of the
// Poisson operator (−Δu) in CSR form and load vectors, with the scatter
// into the CSR value array and the right-hand side running through any
// SPRAY strategy.
package fem

import (
	"fmt"
	"math"

	"spray"
	"spray/internal/hexelem"
	"spray/internal/mesh"
	"spray/internal/par"
	"spray/internal/sparse"
)

// Problem holds the symbolic structure of the assembled system: the mesh,
// the CSR sparsity pattern of the node-to-node graph, and the per-element
// scatter map from local (corner, corner) pairs to CSR value positions.
type Problem struct {
	Mesh *mesh.Hex
	// Pattern is the CSR skeleton: RowPtr/Col fixed, Val is the
	// assembly target.
	Pattern *sparse.CSR[float64]
	// scatter[8*8*e + 8*a + b] is the position in Pattern.Val receiving
	// element e's local contribution K[a][b]. Positions are int32 so each
	// element's 64 entries form a ready-made Scatter index batch; the
	// constructor rejects patterns with more than MaxInt32 entries.
	scatter []int32
}

// NewProblem performs the symbolic phase: build the sparsity pattern of
// the node connectivity graph and precompute every element's scatter
// positions. This mirrors real FEM codes, where the symbolic assembly is
// done once and the numeric assembly — the SPRAY-parallelized part — runs
// every nonlinear iteration or time step.
func NewProblem(m *mesh.Hex) *Problem {
	coo := sparse.NewCOO[float64](m.NumNode, m.NumNode)
	for e := 0; e < m.NumElem; e++ {
		nl := m.ElemNodes(e)
		for _, a := range nl {
			for _, b := range nl {
				coo.Add(int(a), int(b), 0)
			}
		}
	}
	pattern := sparse.FromCOO(coo)
	if nnz := pattern.NNZ(); nnz > math.MaxInt32 {
		panic(fmt.Sprintf("fem: pattern has %d entries, exceeding the int32 scatter-map range", nnz))
	}

	p := &Problem{Mesh: m, Pattern: pattern}
	p.scatter = make([]int32, 64*m.NumElem)
	for e := 0; e < m.NumElem; e++ {
		nl := m.ElemNodes(e)
		for a := 0; a < 8; a++ {
			row := int(nl[a])
			for b := 0; b < 8; b++ {
				pos := p.find(row, nl[b])
				p.scatter[64*e+8*a+b] = int32(pos)
			}
		}
	}
	return p
}

// find locates column col within row's CSR segment by binary search.
func (p *Problem) find(row int, col int32) int64 {
	lo, hi := p.Pattern.RowPtr[row], p.Pattern.RowPtr[row+1]
	for lo < hi {
		mid := (lo + hi) / 2
		if p.Pattern.Col[mid] < col {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo >= p.Pattern.RowPtr[row+1] || p.Pattern.Col[lo] != col {
		panic(fmt.Sprintf("fem: entry (%d,%d) missing from pattern", row, col))
	}
	return lo
}

// NNZ returns the number of stored matrix entries.
func (p *Problem) NNZ() int { return p.Pattern.NNZ() }

// elemStiffness computes the 8×8 local stiffness matrix of the Poisson
// operator on element e using one-point (mean) quadrature with the
// element's B matrix: K[a][b] = (∇φa · ∇φb) · V ≈ (bᵃ · bᵇ)/V at the
// element center. Exact for rectangular elements up to the hourglass
// space; standard mean-quadrature FEM. The matrix is written row-major
// into k (k[8a+b] = K[a][b]) so it doubles as the value batch of the
// element's single Scatter.
func (p *Problem) elemStiffness(e int, x, y, z *[8]float64, k *[64]float64) {
	var b [3][8]float64
	vol := hexelem.ShapeFunctionDerivatives(x, y, z, &b)
	inv := 1.0 / vol
	for a := 0; a < 8; a++ {
		for c := a; c < 8; c++ {
			v := (b[0][a]*b[0][c] + b[1][a]*b[1][c] + b[2][a]*b[2][c]) * inv
			k[8*a+c] = v
			k[8*c+a] = v
		}
	}
}

// Assemble numerically assembles the global stiffness matrix into
// Pattern.Val (which is zeroed first) using the given SPRAY strategy for
// the concurrent scatter. It returns the reducer for memory statistics.
func (p *Problem) Assemble(team *spray.Team, st spray.Strategy) spray.Reducer[float64] {
	clear(p.Pattern.Val)
	r := spray.New(st, p.Pattern.Val, team.Size())
	p.AssembleWith(team, r)
	return r
}

// AssembleWith is the reusable-reducer form of Assemble for repeated
// assembly (it does not zero Val; contributions accumulate, the FEM
// convention for multi-pass assembly).
func (p *Problem) AssembleWith(team *spray.Team, r spray.Reducer[float64]) {
	m := p.Mesh
	c := par.NewChunker(par.Static(), 0, m.NumElem, team.Size())
	team.Run(func(tid int) {
		acc := r.Private(tid)
		bacc := spray.Bulk(acc)
		var x, y, z [8]float64
		var k [64]float64
		c.For(tid, func(from, to int) {
			for e := from; e < to; e++ {
				m.CollectCoords(e, &x, &y, &z)
				p.elemStiffness(e, &x, &y, &z, &k)
				// The precomputed scatter map is the index batch; the
				// flat local matrix is the value batch.
				bacc.Scatter(p.scatter[64*e:64*e+64], k[:])
			}
		})
		acc.Done()
	})
	r.FinalizeWith(team)
}

// AssembleSeq is the sequential reference assembly.
func (p *Problem) AssembleSeq() {
	clear(p.Pattern.Val)
	m := p.Mesh
	var x, y, z [8]float64
	var k [64]float64
	for e := 0; e < m.NumElem; e++ {
		m.CollectCoords(e, &x, &y, &z)
		p.elemStiffness(e, &x, &y, &z, &k)
		base := 64 * e
		for j, v := range k {
			p.Pattern.Val[p.scatter[base+j]] += v
		}
	}
}

// AssembleLoad assembles the load vector for a constant source f over the
// domain (each element spreads f·V/8 to its corners) with the given
// strategy — the vector-valued sibling of the matrix assembly.
func (p *Problem) AssembleLoad(team *spray.Team, st spray.Strategy, f float64, rhs []float64) spray.Reducer[float64] {
	if len(rhs) != p.Mesh.NumNode {
		panic(fmt.Sprintf("fem: rhs length %d for %d nodes", len(rhs), p.Mesh.NumNode))
	}
	m := p.Mesh
	r := spray.New(st, rhs, team.Size())
	c := par.NewChunker(par.Static(), 0, m.NumElem, team.Size())
	team.Run(func(tid int) {
		acc := r.Private(tid)
		bacc := spray.Bulk(acc)
		var x, y, z [8]float64
		var b [3][8]float64
		var vals [8]float64
		c.For(tid, func(from, to int) {
			for e := from; e < to; e++ {
				m.CollectCoords(e, &x, &y, &z)
				vol := hexelem.ShapeFunctionDerivatives(&x, &y, &z, &b)
				contrib := f * vol / 8
				for j := range vals {
					vals[j] = contrib
				}
				// The connectivity list is the index batch: one Scatter
				// spreads the element's load to its 8 corners.
				bacc.Scatter(m.ElemNodes(e), vals[:])
			}
		})
		acc.Done()
	})
	r.FinalizeWith(team)
	return r
}

// RowSums returns K·1 — zero (up to roundoff) for every interior row of a
// pure stiffness matrix, since constants are in the operator's null
// space. Used by tests and as a cheap assembly sanity check.
func (p *Problem) RowSums() []float64 {
	ones := make([]float64, p.Mesh.NumNode)
	for i := range ones {
		ones[i] = 1
	}
	out := make([]float64, p.Mesh.NumNode)
	p.Pattern.MulVec(ones, out)
	return out
}

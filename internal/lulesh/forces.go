package lulesh

import (
	"fmt"
	"math"
	"sync/atomic"

	"spray"
	"spray/internal/mesh"
	"spray/internal/par"
)

// elemForceFunc computes the eight corner forces of element e.
type elemForceFunc func(e int, fx, fy, fz *[8]float64)

// ForceScheme abstracts how per-element corner forces are accumulated
// into the shared nodal force arrays — the exact spot where the paper
// replaces LULESH's domain-specific parallelization with SPRAY reducers.
type ForceScheme interface {
	// Name identifies the scheme in benchmark output.
	Name() string
	// PeakBytes reports the scheme's extra-memory high-water mark.
	PeakBytes() int64
	// scatter runs calc over all elements on the team and deposits the
	// corner forces into d.FX/FY/FZ.
	scatter(d *Domain, t *par.Team, calc elemForceFunc)
}

// originalScheme is LULESH 2.0's own OpenMP parallelization: corner
// forces are written race-free into per-element-corner arrays (an 8×
// replication of the nodal force array, as the paper describes), then a
// second sweep over the mesh gathers each node's corners through the
// inverse connectivity. No synchronization, but 8× memory and an extra
// full-mesh pass.
type originalScheme struct {
	fxElem, fyElem, fzElem []float64
	peak                   int64
}

// Original returns LULESH's domain-specific force accumulation scheme.
func Original() ForceScheme { return &originalScheme{} }

func (s *originalScheme) Name() string { return "lulesh-original" }

func (s *originalScheme) PeakBytes() int64 { return s.peak }

func (s *originalScheme) scatter(d *Domain, t *par.Team, calc elemForceFunc) {
	corners := mesh.CornersPerElem * d.Mesh.NumElem
	if len(s.fxElem) != corners {
		s.fxElem = make([]float64, corners)
		s.fyElem = make([]float64, corners)
		s.fzElem = make([]float64, corners)
		if b := int64(3 * corners * 8); b > s.peak {
			s.peak = b
		}
	}
	// Sweep 1: per-element corner forces, disjoint writes.
	par.ParallelFor(t, 0, d.Mesh.NumElem, par.Static(), func(tid, from, to int) {
		var fx, fy, fz [8]float64
		for e := from; e < to; e++ {
			calc(e, &fx, &fy, &fz)
			base := mesh.CornersPerElem * e
			for c := 0; c < 8; c++ {
				s.fxElem[base+c] = fx[c]
				s.fyElem[base+c] = fy[c]
				s.fzElem[base+c] = fz[c]
			}
		}
	})
	// Sweep 2: gather each node's corners; each node is written by
	// exactly one thread, so no races.
	m := d.Mesh
	par.ParallelFor(t, 0, m.NumNode, par.Static(), func(tid, from, to int) {
		for n := from; n < to; n++ {
			var sx, sy, sz float64
			for k := m.NodeElemStart[n]; k < m.NodeElemStart[n+1]; k++ {
				c := m.NodeElemCornerList[k]
				sx += s.fxElem[c]
				sy += s.fyElem[c]
				sz += s.fzElem[c]
			}
			d.FX[n] += sx
			d.FY[n] += sy
			d.FZ[n] += sz
		}
	})
}

// sprayScheme accumulates corner forces directly through three SPRAY
// reducers wrapping FX, FY, FZ — the paper's modification: the 8-copy
// machinery and the gather sweep disappear, and the reduction strategy
// becomes a one-line choice.
type sprayScheme struct {
	st         spray.Strategy
	sched      spray.Schedule
	rx, ry, rz spray.Reducer[float64]
	bound      *Domain
	threads    int
}

// Spray returns a force scheme that accumulates through the given SPRAY
// strategy on the static loop schedule.
func Spray(st spray.Strategy) ForceScheme { return SpraySched(st, spray.Static()) }

// SpraySched is Spray with the element-loop schedule exposed. Element
// force costs vary with mesh distortion, so the scatter loop is the
// imbalance-sensitive leg of schedule comparisons.
func SpraySched(st spray.Strategy, sched spray.Schedule) ForceScheme {
	return &sprayScheme{st: st, sched: sched}
}

func (s *sprayScheme) Name() string { return "spray-" + s.st.String() }

func (s *sprayScheme) PeakBytes() int64 {
	if s.rx == nil {
		return 0
	}
	return s.rx.PeakBytes() + s.ry.PeakBytes() + s.rz.PeakBytes()
}

func (s *sprayScheme) scatter(d *Domain, t *par.Team, calc elemForceFunc) {
	if s.bound != d || s.threads != t.Size() {
		s.rx = spray.New(s.st, d.FX, t.Size())
		s.ry = spray.New(s.st, d.FY, t.Size())
		s.rz = spray.New(s.st, d.FZ, t.Size())
		s.bound = d
		s.threads = t.Size()
	}
	m := d.Mesh
	c := t.Loop(s.sched, 0, m.NumElem)
	t.Run(func(tid int) {
		ax := s.rx.Private(tid)
		ay := s.ry.Private(tid)
		az := s.rz.Private(tid)
		bx, by, bz := spray.Bulk(ax), spray.Bulk(ay), spray.Bulk(az)
		c.For(tid, func(from, to int) {
			var fx, fy, fz [8]float64
			for e := from; e < to; e++ {
				calc(e, &fx, &fy, &fz)
				// The element's connectivity list is the index batch: one
				// Scatter per axis deposits all eight corner forces.
				nl := m.ElemNodes(e)
				bx.Scatter(nl, fx[:])
				by.Scatter(nl, fy[:])
				bz.Scatter(nl, fz[:])
			}
		})
		ax.Done()
		ay.Done()
		az.Done()
	})
	s.rx.FinalizeWith(t)
	s.ry.FinalizeWith(t)
	s.rz.FinalizeWith(t)
}

// calcForceForNodes zeroes the nodal force arrays and accumulates the
// volume forces: stress integration plus hourglass control — LULESH
// CalcForceForNodes/CalcVolumeForceForElems with the paper's scheme
// abstraction in place of the hand-rolled corner machinery.
func (d *Domain) calcForceForNodes(t *par.Team, fs ForceScheme) error {
	par.ParallelFor(t, 0, d.Mesh.NumNode, par.Static(), func(tid, from, to int) {
		for n := from; n < to; n++ {
			d.FX[n] = 0
			d.FY[n] = 0
			d.FZ[n] = 0
		}
	})

	// InitStressTermsForElems: pressure + viscosity as diagonal stress.
	par.ParallelFor(t, 0, d.Mesh.NumElem, par.Static(), func(tid, from, to int) {
		for e := from; e < to; e++ {
			s := -d.P[e] - d.Q[e]
			d.sigxx[e] = s
			d.sigyy[e] = s
			d.sigzz[e] = s
		}
	})

	// IntegrateStressForElems.
	var badElem atomic.Int64
	badElem.Store(-1)
	fs.scatter(d, t, func(e int, fx, fy, fz *[8]float64) {
		var x, y, z [8]float64
		var b [3][8]float64
		d.collectCoords(e, &x, &y, &z)
		determ := calcElemShapeFunctionDerivatives(&x, &y, &z, &b)
		if determ <= 0 {
			badElem.CompareAndSwap(-1, int64(e))
		}
		sumElemStressesToNodeForces(&b, d.sigxx[e], d.sigyy[e], d.sigzz[e], fx, fy, fz)
	})
	if e := badElem.Load(); e >= 0 {
		return fmt.Errorf("lulesh: negative Jacobian volume in element %d at cycle %d", e, d.Cycle)
	}

	// CalcFBHourglassForceForElems.
	if d.Params.HGCoef > 0 {
		hg := d.Params.HGCoef
		fs.scatter(d, t, func(e int, fx, fy, fz *[8]float64) {
			var x, y, z, xd, yd, zd [8]float64
			var dvdx, dvdy, dvdz [8]float64
			d.collectCoords(e, &x, &y, &z)
			d.collectVelocities(e, &xd, &yd, &zd)
			calcElemVolumeDerivative(&x, &y, &z, &dvdx, &dvdy, &dvdz)
			determ := d.VolO[e] * d.V[e]
			volinv := 1.0 / determ
			var hourgam [8][4]float64
			for i := 0; i < 4; i++ {
				var hmx, hmy, hmz float64
				for j := 0; j < 8; j++ {
					hmx += x[j] * hourglassGamma[i][j]
					hmy += y[j] * hourglassGamma[i][j]
					hmz += z[j] * hourglassGamma[i][j]
				}
				for j := 0; j < 8; j++ {
					hourgam[j][i] = hourglassGamma[i][j] -
						volinv*(dvdx[j]*hmx+dvdy[j]*hmy+dvdz[j]*hmz)
				}
			}
			coefficient := -hg * 0.01 * d.SS[e] * d.ElemMass[e] / math.Cbrt(determ)
			calcElemHourglassForce(&xd, &yd, &zd, &hourgam, coefficient, fx, fy, fz)
		})
	}
	return nil
}

package lulesh

// The artificial-viscosity and equation-of-state stage, ported from
// LULESH 2.0: monotonic Q gradients (CalcMonotonicQGradientsForElems),
// the neighbor-limited Q region pass (CalcMonotonicQRegionForElems), and
// the three-pass energy/pressure update (CalcEnergyForElems /
// CalcPressureForElems / CalcSoundSpeedForElems) for the gamma-law
// material. All loops are elementwise with neighbor *gathers* — race-free
// DOALL parallelism, which is why the paper's reduction machinery is only
// needed in the force kernels.

import (
	"fmt"
	"math"
	"sync/atomic"

	"spray/internal/mesh"
	"spray/internal/par"
)

const ptiny = 1e-36

// calcMonotonicQGradients computes the velocity and position gradients in
// the three logical mesh directions for every element.
func (d *Domain) calcMonotonicQGradients(t *par.Team) {
	m := d.Mesh
	par.ParallelFor(t, 0, m.NumElem, par.Static(), func(tid, from, to int) {
		for i := from; i < to; i++ {
			nl := m.ElemNodes(i)
			var x, y, z, xv, yv, zv [8]float64
			for c, n := range nl {
				x[c], y[c], z[c] = d.X[n], d.Y[n], d.Z[n]
				xv[c], yv[c], zv[c] = d.XD[n], d.YD[n], d.ZD[n]
			}
			vol := d.VolO[i] * d.vnew[i]
			norm := 1.0 / (vol + ptiny)

			dxj := -0.25 * ((x[0] + x[1] + x[5] + x[4]) - (x[3] + x[2] + x[6] + x[7]))
			dyj := -0.25 * ((y[0] + y[1] + y[5] + y[4]) - (y[3] + y[2] + y[6] + y[7]))
			dzj := -0.25 * ((z[0] + z[1] + z[5] + z[4]) - (z[3] + z[2] + z[6] + z[7]))

			dxi := 0.25 * ((x[1] + x[2] + x[6] + x[5]) - (x[0] + x[3] + x[7] + x[4]))
			dyi := 0.25 * ((y[1] + y[2] + y[6] + y[5]) - (y[0] + y[3] + y[7] + y[4]))
			dzi := 0.25 * ((z[1] + z[2] + z[6] + z[5]) - (z[0] + z[3] + z[7] + z[4]))

			dxk := 0.25 * ((x[4] + x[5] + x[6] + x[7]) - (x[0] + x[1] + x[2] + x[3]))
			dyk := 0.25 * ((y[4] + y[5] + y[6] + y[7]) - (y[0] + y[1] + y[2] + y[3]))
			dzk := 0.25 * ((z[4] + z[5] + z[6] + z[7]) - (z[0] + z[1] + z[2] + z[3]))

			// zeta direction: i cross j.
			ax := dyi*dzj - dzi*dyj
			ay := dzi*dxj - dxi*dzj
			az := dxi*dyj - dyi*dxj
			d.delxZeta[i] = vol / math.Sqrt(ax*ax+ay*ay+az*az+ptiny)
			ax *= norm
			ay *= norm
			az *= norm
			dxv := 0.25 * ((xv[4] + xv[5] + xv[6] + xv[7]) - (xv[0] + xv[1] + xv[2] + xv[3]))
			dyv := 0.25 * ((yv[4] + yv[5] + yv[6] + yv[7]) - (yv[0] + yv[1] + yv[2] + yv[3]))
			dzv := 0.25 * ((zv[4] + zv[5] + zv[6] + zv[7]) - (zv[0] + zv[1] + zv[2] + zv[3]))
			d.delvZeta[i] = ax*dxv + ay*dyv + az*dzv

			// xi direction: j cross k.
			ax = dyj*dzk - dzj*dyk
			ay = dzj*dxk - dxj*dzk
			az = dxj*dyk - dyj*dxk
			d.delxXi[i] = vol / math.Sqrt(ax*ax+ay*ay+az*az+ptiny)
			ax *= norm
			ay *= norm
			az *= norm
			dxv = 0.25 * ((xv[1] + xv[2] + xv[6] + xv[5]) - (xv[0] + xv[3] + xv[7] + xv[4]))
			dyv = 0.25 * ((yv[1] + yv[2] + yv[6] + yv[5]) - (yv[0] + yv[3] + yv[7] + yv[4]))
			dzv = 0.25 * ((zv[1] + zv[2] + zv[6] + zv[5]) - (zv[0] + zv[3] + zv[7] + zv[4]))
			d.delvXi[i] = ax*dxv + ay*dyv + az*dzv

			// eta direction: k cross i.
			ax = dyk*dzi - dzk*dyi
			ay = dzk*dxi - dxk*dzi
			az = dxk*dyi - dyk*dxi
			d.delxEta[i] = vol / math.Sqrt(ax*ax+ay*ay+az*az+ptiny)
			ax *= norm
			ay *= norm
			az *= norm
			dxv = -0.25 * ((xv[0] + xv[1] + xv[5] + xv[4]) - (xv[3] + xv[2] + xv[6] + xv[7]))
			dyv = -0.25 * ((yv[0] + yv[1] + yv[5] + yv[4]) - (yv[3] + yv[2] + yv[6] + yv[7]))
			dzv = -0.25 * ((zv[0] + zv[1] + zv[5] + zv[4]) - (zv[3] + zv[2] + zv[6] + zv[7]))
			d.delvEta[i] = ax*dxv + ay*dyv + az*dzv
		}
	})
}

// limit computes one direction's limiter value phi from the element's
// gradient and the (BC-resolved) neighbor gradients.
func limit(delv, delvm, delvp, limiterMult, maxSlope float64) float64 {
	norm := 1.0 / (delv + ptiny)
	delvm *= norm
	delvp *= norm
	phi := 0.5 * (delvm + delvp)
	delvm *= limiterMult
	delvp *= limiterMult
	if delvm < phi {
		phi = delvm
	}
	if delvp < phi {
		phi = delvp
	}
	if phi < 0 {
		phi = 0
	}
	if phi > maxSlope {
		phi = maxSlope
	}
	return phi
}

// resolve returns the neighbor gradient for one face given its boundary
// bits: interior → neighbor value, symmetry → mirror (own value), free →
// zero.
func resolve(grad []float64, own int, neighbor int32, bc, symmBit, freeBit int32) float64 {
	switch {
	case bc&symmBit != 0:
		return grad[own]
	case bc&freeBit != 0:
		return 0
	default:
		return grad[neighbor]
	}
}

// calcMonotonicQRegion applies the monotonic limiter and computes the
// linear and quadratic viscosity terms qq/ql per element.
func (d *Domain) calcMonotonicQRegion(t *par.Team) {
	p := d.Params
	nb := d.neighbors
	par.ParallelFor(t, 0, d.Mesh.NumElem, par.Static(), func(tid, from, to int) {
		for i := from; i < to; i++ {
			bc := nb.BC[i]

			delvmXi := resolve(d.delvXi, i, nb.XiM[i], bc, mesh.XiMSymm, mesh.XiMFree)
			delvpXi := resolve(d.delvXi, i, nb.XiP[i], bc, mesh.XiPSymm, mesh.XiPFree)
			phixi := limit(d.delvXi[i], delvmXi, delvpXi, p.MonoqLimiter, p.MonoqMaxSlope)

			delvmEta := resolve(d.delvEta, i, nb.EtaM[i], bc, mesh.EtaMSymm, mesh.EtaMFree)
			delvpEta := resolve(d.delvEta, i, nb.EtaP[i], bc, mesh.EtaPSymm, mesh.EtaPFree)
			phieta := limit(d.delvEta[i], delvmEta, delvpEta, p.MonoqLimiter, p.MonoqMaxSlope)

			delvmZeta := resolve(d.delvZeta, i, nb.ZetaM[i], bc, mesh.ZetaMSymm, mesh.ZetaMFree)
			delvpZeta := resolve(d.delvZeta, i, nb.ZetaP[i], bc, mesh.ZetaPSymm, mesh.ZetaPFree)
			phizeta := limit(d.delvZeta[i], delvmZeta, delvpZeta, p.MonoqLimiter, p.MonoqMaxSlope)

			var qlin, qquad float64
			if d.VDOV[i] <= 0 {
				delvxxi := d.delvXi[i] * d.delxXi[i]
				delvxeta := d.delvEta[i] * d.delxEta[i]
				delvxzeta := d.delvZeta[i] * d.delxZeta[i]
				if delvxxi > 0 {
					delvxxi = 0
				}
				if delvxeta > 0 {
					delvxeta = 0
				}
				if delvxzeta > 0 {
					delvxzeta = 0
				}
				rho := d.ElemMass[i] / (d.VolO[i] * d.vnew[i])
				qlin = -p.QLCMonoq * rho *
					(delvxxi*(1-phixi) + delvxeta*(1-phieta) + delvxzeta*(1-phizeta))
				qquad = p.QQCMonoq * rho *
					(delvxxi*delvxxi*(1-phixi*phixi) +
						delvxeta*delvxeta*(1-phieta*phieta) +
						delvxzeta*delvxzeta*(1-phizeta*phizeta))
			}
			d.QQ[i] = qquad
			d.QL[i] = qlin
		}
	})
}

// calcPressure is LULESH CalcPressureForElems for one element of the
// gamma-law material: p = (2/3)·e·(compression+1), with cutoffs.
func calcPressure(eNew, compression, pcut, pmin float64) (pNew, bvc, pbvc float64) {
	const c1s = 2.0 / 3.0
	bvc = c1s * (compression + 1)
	pbvc = c1s
	pNew = bvc * eNew
	if math.Abs(pNew) < pcut {
		pNew = 0
	}
	if pNew < pmin {
		pNew = pmin
	}
	return pNew, bvc, pbvc
}

// soundSpeedSquared is the shared ssc expression of CalcEnergyForElems
// and CalcSoundSpeedForElems, with LULESH's tiny-value clamping already
// applied (returns the clamped ssc, not its square root).
func soundSpeedSquared(pbvc, eNew, v, bvc, pNew, rho0 float64) float64 {
	ssc := (pbvc*eNew + v*v*bvc*pNew) / rho0
	if ssc <= 1.111111e-36 {
		return 0.3333333e-18
	}
	return math.Sqrt(ssc)
}

// evalEOSElem runs the three-pass energy/pressure update
// (CalcEnergyForElems) plus final Q and sound speed for one element and
// commits the new state. Returns false if the viscosity exceeded QStop.
func (d *Domain) evalEOSElem(i int) bool {
	p := d.Params
	vnewc := d.vnew[i]
	eOld, delvc := d.E[i], d.Delv[i]
	pOld, qOld := d.P[i], d.Q[i]
	qqOld, qlOld := d.QQ[i], d.QL[i]

	compression := 1.0/vnewc - 1.0
	vchalf := vnewc - delvc*0.5
	compHalfStep := 1.0/vchalf - 1.0

	// Pass 1: half-step pressure.
	eNew := eOld - 0.5*delvc*(pOld+qOld)
	if eNew < p.EMin {
		eNew = p.EMin
	}
	pHalfStep, bvc, pbvc := calcPressure(eNew, compHalfStep, p.PCut, p.PMin)
	vhalf := 1.0 / (1.0 + compHalfStep)

	var qNew float64
	if delvc <= 0 {
		ssc := soundSpeedSquared(pbvc, eNew, vhalf, bvc, pHalfStep, p.RefDens)
		qNew = ssc*qlOld + qqOld
	}
	eNew += 0.5 * delvc * (3.0*(pOld+qOld) - 4.0*(pHalfStep+qNew))

	if math.Abs(eNew) < p.ECut {
		eNew = 0
	}
	if eNew < p.EMin {
		eNew = p.EMin
	}

	// Pass 2: full-step pressure, corrector on the energy.
	pNew, bvc, pbvc := calcPressure(eNew, compression, p.PCut, p.PMin)
	var qTilde float64
	if delvc <= 0 {
		ssc := soundSpeedSquared(pbvc, eNew, vnewc, bvc, pNew, p.RefDens)
		qTilde = ssc*qlOld + qqOld
	}
	eNew -= (7.0*(pOld+qOld) - 8.0*(pHalfStep+qNew) + (pNew + qTilde)) * delvc / 6.0
	if math.Abs(eNew) < p.ECut {
		eNew = 0
	}
	if eNew < p.EMin {
		eNew = p.EMin
	}

	// Pass 3: final pressure, Q and sound speed.
	pNew, bvc, pbvc = calcPressure(eNew, compression, p.PCut, p.PMin)
	if delvc <= 0 {
		ssc := soundSpeedSquared(pbvc, eNew, vnewc, bvc, pNew, p.RefDens)
		qNew = ssc*qlOld + qqOld
		if math.Abs(qNew) < p.QCut {
			qNew = 0
		}
	}
	ssNew := soundSpeedSquared(pbvc, eNew, vnewc, bvc, pNew, p.RefDens)

	d.E[i] = eNew
	d.P[i] = pNew
	d.Q[i] = qNew
	d.SS[i] = ssNew

	// UpdateVolumes.
	v := vnewc
	if math.Abs(v-1.0) < p.VCut {
		v = 1.0
	}
	d.V[i] = v

	return qNew <= p.QStop
}

// applyMaterialProperties runs the EOS over every element, the
// single-material case of LULESH EvalEOSForElems. It returns an error
// when the artificial viscosity exceeds the QStop threshold (LULESH's
// QStopped abort).
func (d *Domain) applyMaterialProperties(t *par.Team) error {
	var qStopped atomic.Int64
	qStopped.Store(-1)
	par.ParallelFor(t, 0, d.Mesh.NumElem, par.Static(), func(tid, from, to int) {
		for i := from; i < to; i++ {
			if !d.evalEOSElem(i) {
				qStopped.CompareAndSwap(-1, int64(i))
			}
		}
	})
	if i := qStopped.Load(); i >= 0 {
		return fmt.Errorf("lulesh: artificial viscosity %v exceeded QStop in element %d at cycle %d",
			d.Q[i], i, d.Cycle)
	}
	return nil
}

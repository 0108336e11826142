package lulesh

import (
	"fmt"
	"math"

	"spray/internal/mesh"
)

// Params collects the numerical controls of the simulation; Defaults
// mirrors the LULESH 2.0 constants where the mini-port uses them.
type Params struct {
	StopTime      float64 // simulated end time
	MaxCycles     int     // iteration cap (the paper runs 100 iterations)
	HGCoef        float64 // hourglass damping coefficient (LULESH: 3.0)
	CFL           float64 // Courant factor for the time step
	DtMult        float64 // max growth factor of dt per cycle
	UCut          float64 // velocity snap-to-zero cutoff
	PCut          float64 // pressure cutoff
	ECut          float64 // energy cutoff
	QCut          float64 // artificial-viscosity cutoff
	VCut          float64 // relative-volume snap-to-one cutoff
	EMin          float64 // energy floor
	PMin          float64 // pressure floor
	QStop         float64 // artificial-viscosity abort threshold
	RefDens       float64 // reference density
	QQC           float64 // quadratic q coefficient in the Courant condition
	QLCMonoq      float64 // linear coefficient of the monotonic Q
	QQCMonoq      float64 // quadratic coefficient of the monotonic Q
	MonoqLimiter  float64 // monotonic limiter multiplier
	MonoqMaxSlope float64 // monotonic limiter slope cap
	InitDt        float64 // first time step (scaled by mesh spacing)
	SideLen       float64 // physical cube side length (LULESH: 1.125)
	E0            float64 // Sedov energy deposited in the origin element
}

// Defaults returns the LULESH 2.0-flavored parameter set used by the
// paper's experiment.
func Defaults() Params {
	return Params{
		StopTime:      1e-2,
		MaxCycles:     100,
		HGCoef:        3.0,
		CFL:           0.45,
		DtMult:        1.1,
		UCut:          1e-7,
		PCut:          1e-7,
		ECut:          1e-7,
		QCut:          1e-7,
		VCut:          1e-10,
		EMin:          -1e15,
		PMin:          0,
		QStop:         1e12,
		RefDens:       1.0,
		QQC:           2.0,
		QLCMonoq:      0.5,
		QQCMonoq:      2.0 / 3.0,
		MonoqLimiter:  2.0,
		MonoqMaxSlope: 1.0,
		InitDt:        0, // derived from the mesh in New
		SideLen:       1.125,
		E0:            3.948746e+7,
	}
}

// Domain is the complete simulation state: node-centered kinematics and
// forces plus element-centered thermodynamics, mirroring the LULESH
// Domain class.
type Domain struct {
	Mesh   *mesh.Hex
	Params Params

	// Node-centered.
	X, Y, Z       []float64 // positions
	XD, YD, ZD    []float64 // velocities
	XDD, YDD, ZDD []float64 // accelerations
	FX, FY, FZ    []float64 // force accumulators — the SPRAY targets
	NodalMass     []float64

	// Element-centered.
	E, P, Q  []float64 // energy, pressure, artificial viscosity
	V        []float64 // relative volume (current/reference)
	VolO     []float64 // reference volume
	Delv     []float64 // volume change over the last step
	VDOV     []float64 // volume strain rate
	Arealg   []float64 // characteristic length
	SS       []float64 // sound speed
	ElemMass []float64

	// Artificial-viscosity state.
	QQ, QL []float64 // quadratic and linear monotonic-Q terms

	// Scratch, reused across cycles.
	vnew                      []float64
	sigxx, sigyy, sigzz       []float64
	delvXi, delvEta, delvZeta []float64
	delxXi, delxEta, delxZeta []float64
	neighbors                 *mesh.Neighbors

	Time, Dt float64
	Cycle    int

	// Time constraints carried between cycles (0 = unconstrained yet).
	dtCourant, dtHydro float64
}

// New builds the Sedov-problem domain on an edgeElems³ mesh, matching the
// LULESH 2.0 initialization: unit relative volumes, masses from element
// volumes, all energy deposited in the origin element, and symmetry
// boundary conditions on the three coordinate planes.
func New(edgeElems int, p Params) *Domain {
	m := mesh.NewHex(edgeElems, p.SideLen)
	d := &Domain{
		Mesh:   m,
		Params: p,

		X: append([]float64(nil), m.X...),
		Y: append([]float64(nil), m.Y...),
		Z: append([]float64(nil), m.Z...),

		XD: make([]float64, m.NumNode), YD: make([]float64, m.NumNode), ZD: make([]float64, m.NumNode),
		XDD: make([]float64, m.NumNode), YDD: make([]float64, m.NumNode), ZDD: make([]float64, m.NumNode),
		FX: make([]float64, m.NumNode), FY: make([]float64, m.NumNode), FZ: make([]float64, m.NumNode),
		NodalMass: make([]float64, m.NumNode),

		E: make([]float64, m.NumElem), P: make([]float64, m.NumElem), Q: make([]float64, m.NumElem),
		V: make([]float64, m.NumElem), VolO: make([]float64, m.NumElem),
		Delv: make([]float64, m.NumElem), VDOV: make([]float64, m.NumElem),
		Arealg: make([]float64, m.NumElem), SS: make([]float64, m.NumElem),
		ElemMass: make([]float64, m.NumElem),

		QQ: make([]float64, m.NumElem), QL: make([]float64, m.NumElem),

		vnew:  make([]float64, m.NumElem),
		sigxx: make([]float64, m.NumElem), sigyy: make([]float64, m.NumElem), sigzz: make([]float64, m.NumElem),
		delvXi: make([]float64, m.NumElem), delvEta: make([]float64, m.NumElem), delvZeta: make([]float64, m.NumElem),
		delxXi: make([]float64, m.NumElem), delxEta: make([]float64, m.NumElem), delxZeta: make([]float64, m.NumElem),
		neighbors: m.BuildNeighbors(),
	}

	var x, y, z [8]float64
	for e := 0; e < m.NumElem; e++ {
		d.collectCoords(e, &x, &y, &z)
		vol := calcElemVolume(&x, &y, &z)
		d.VolO[e] = vol
		d.V[e] = 1.0
		d.ElemMass[e] = vol * p.RefDens
		for _, n := range m.ElemNodes(e) {
			d.NodalMass[n] += vol * p.RefDens / 8.0
		}
		d.Arealg[e] = calcElemCharacteristicLength(&x, &y, &z, vol)
	}

	// Sedov point blast: all energy in the element at the origin. The
	// density E0 is calibrated for a 30³ mesh and scales with (edge/30)³
	// so the *total* deposited energy E0·V₀ is resolution-independent,
	// LULESH 2.0's convention (theirs calibrates at 45³).
	h := p.SideLen / float64(edgeElems)
	d.E[0] = p.E0 * math.Pow(float64(edgeElems)/30.0, 3)

	if p.InitDt > 0 {
		d.Dt = p.InitDt
	} else {
		// LULESH seeds dt as 0.5·∛V₀/√(2·e₀); an extra 1/8 keeps the
		// first cycle well under the Courant limit the constraint pass
		// will compute, avoiding a large dissipative first step.
		d.Dt = 0.5 * h / math.Sqrt(2*d.E[0]) / 8
	}
	return d
}

func (d *Domain) collectCoords(e int, x, y, z *[8]float64) {
	nl := d.Mesh.ElemNodes(e)
	for c, n := range nl {
		x[c] = d.X[n]
		y[c] = d.Y[n]
		z[c] = d.Z[n]
	}
}

func (d *Domain) collectVelocities(e int, xd, yd, zd *[8]float64) {
	nl := d.Mesh.ElemNodes(e)
	for c, n := range nl {
		xd[c] = d.XD[n]
		yd[c] = d.YD[n]
		zd[c] = d.ZD[n]
	}
}

// TotalEnergy returns the domain's total internal energy weighted by
// reference volume — the conserved-ish diagnostic the tests compare
// across force schemes.
func (d *Domain) TotalEnergy() float64 {
	var sum float64
	for e := range d.E {
		sum += d.E[e] * d.VolO[e]
	}
	return sum
}

// KineticEnergy returns the nodal kinetic energy.
func (d *Domain) KineticEnergy() float64 {
	var sum float64
	for n := range d.XD {
		v2 := d.XD[n]*d.XD[n] + d.YD[n]*d.YD[n] + d.ZD[n]*d.ZD[n]
		sum += 0.5 * d.NodalMass[n] * v2
	}
	return sum
}

// CheckFinite validates that the state has not diverged; returns the
// first offending field.
func (d *Domain) CheckFinite() error {
	for name, s := range map[string][]float64{
		"x": d.X, "xd": d.XD, "e": d.E, "p": d.P, "v": d.V,
	} {
		for i, v := range s {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("lulesh: %s[%d] = %v at cycle %d", name, i, v, d.Cycle)
			}
		}
	}
	for e, v := range d.V {
		if v <= 0 {
			return fmt.Errorf("lulesh: non-positive relative volume %v in element %d at cycle %d", v, e, d.Cycle)
		}
	}
	return nil
}

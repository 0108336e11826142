package lulesh

import (
	"math"
	"testing"

	"spray/internal/par"
)

// gradDomain builds a fresh domain with a prescribed velocity field and
// unit vnew, ready for the gradient pass.
func gradDomain(edge int, vel func(x, y, z float64) (vx, vy, vz float64)) *Domain {
	d := New(edge, Defaults())
	for n := 0; n < d.Mesh.NumNode; n++ {
		d.XD[n], d.YD[n], d.ZD[n] = vel(d.X[n], d.Y[n], d.Z[n])
	}
	for e := range d.vnew {
		d.vnew[e] = 1
	}
	return d
}

func TestMonotonicQGradientsUniformTranslation(t *testing.T) {
	d := gradDomain(3, func(x, y, z float64) (float64, float64, float64) { return 3, -1, 2 })
	team := par.NewTeam(2)
	defer team.Close()
	d.calcMonotonicQGradients(team)
	for e := 0; e < d.Mesh.NumElem; e++ {
		if math.Abs(d.delvXi[e])+math.Abs(d.delvEta[e])+math.Abs(d.delvZeta[e]) > 1e-12 {
			t.Fatalf("elem %d: translation produced gradients %v %v %v",
				e, d.delvXi[e], d.delvEta[e], d.delvZeta[e])
		}
	}
}

func TestMonotonicQGradientsUniformCompression(t *testing.T) {
	// v = −c·r on a mesh with element spacing h: the directional
	// velocity gradients are −c and the position gradients equal h, so
	// their product (the velocity jump across the element) is −c·h.
	const edge, c = 4, 2.5
	d := gradDomain(edge, func(x, y, z float64) (float64, float64, float64) {
		return -c * x, -c * y, -c * z
	})
	h := d.Params.SideLen / edge
	team := par.NewTeam(2)
	defer team.Close()
	d.calcMonotonicQGradients(team)
	for e := 0; e < d.Mesh.NumElem; e++ {
		for name, got := range map[string]float64{
			"delx_xi": d.delxXi[e], "delx_eta": d.delxEta[e], "delx_zeta": d.delxZeta[e],
		} {
			if math.Abs(got-h) > 1e-9 {
				t.Fatalf("elem %d %s = %v, want %v", e, name, got, h)
			}
		}
		for name, got := range map[string]float64{
			"delv_xi": d.delvXi[e], "delv_eta": d.delvEta[e], "delv_zeta": d.delvZeta[e],
		} {
			if math.Abs(got-(-c)) > 1e-9 {
				t.Fatalf("elem %d %s = %v, want %v", e, name, got, -c)
			}
		}
	}
}

func TestMonotonicQZeroForSmoothCompression(t *testing.T) {
	// The limiter's purpose: a smooth (here uniform) compression field
	// must produce no artificial viscosity away from free boundaries.
	const edge = 5
	d := gradDomain(edge, func(x, y, z float64) (float64, float64, float64) {
		return -x, -y, -z
	})
	for e := range d.VDOV {
		d.VDOV[e] = -3 // compressing everywhere
	}
	team := par.NewTeam(2)
	defer team.Close()
	d.calcMonotonicQGradients(team)
	d.calcMonotonicQRegion(team)
	// Interior element: fully limited → zero q.
	elem := func(i, j, k int) int { return k*edge*edge + j*edge + i }
	for _, e := range []int{elem(1, 1, 1), elem(2, 2, 2), elem(1, 2, 3)} {
		if d.QL[e] != 0 || d.QQ[e] != 0 {
			t.Errorf("interior elem %d: ql=%v qq=%v, want 0", e, d.QL[e], d.QQ[e])
		}
	}
	// A −x symmetry-plane element mirrors its own gradient: still 0.
	if e := elem(0, 2, 2); d.QL[e] != 0 || d.QQ[e] != 0 {
		t.Errorf("symm elem: ql=%v qq=%v", d.QL[e], d.QQ[e])
	}
	// A +x free-boundary element sees delvp = 0 → limiter opens → q > 0.
	if e := elem(edge-1, 2, 2); d.QL[e] <= 0 {
		t.Errorf("free-boundary elem: ql=%v, want > 0", d.QL[e])
	}
}

func TestMonotonicQZeroUnderExpansion(t *testing.T) {
	const edge = 3
	d := gradDomain(edge, func(x, y, z float64) (float64, float64, float64) {
		return x, y, z // expanding
	})
	for e := range d.VDOV {
		d.VDOV[e] = 3
	}
	team := par.NewTeam(1)
	defer team.Close()
	d.calcMonotonicQGradients(team)
	d.calcMonotonicQRegion(team)
	for e := 0; e < d.Mesh.NumElem; e++ {
		if d.QL[e] != 0 || d.QQ[e] != 0 {
			t.Fatalf("expansion produced q at %d: %v/%v", e, d.QL[e], d.QQ[e])
		}
	}
}

func TestMonotonicQPositiveAtShock(t *testing.T) {
	// A velocity discontinuity (one compressing slab) must generate
	// viscosity in the compressing elements.
	const edge = 6
	d := gradDomain(edge, func(x, y, z float64) (float64, float64, float64) {
		if x < d_halfway {
			return 5, 0, 0 // rushing toward the static half
		}
		return 0, 0, 0
	})
	team := par.NewTeam(2)
	defer team.Close()
	d.calcMonotonicQGradients(team)
	for e := range d.VDOV {
		d.VDOV[e] = d.delvXi[e] // compression where xi gradient negative
	}
	d.calcMonotonicQRegion(team)
	var positive int
	for e := 0; e < d.Mesh.NumElem; e++ {
		if d.QL[e] > 0 || d.QQ[e] > 0 {
			positive++
		}
		if d.QL[e] < 0 || d.QQ[e] < 0 {
			t.Fatalf("negative viscosity at %d: %v/%v", e, d.QL[e], d.QQ[e])
		}
	}
	if positive == 0 {
		t.Error("no viscosity generated at the shock")
	}
}

const d_halfway = 1.125 / 2

func TestCalcPressureGammaLaw(t *testing.T) {
	// p = (2/3)·e/v for the gamma-law material.
	p, bvc, pbvc := calcPressure(3.0, 1.0/0.5-1, 1e-7, 0) // v = 0.5
	if math.Abs(p-4.0) > 1e-12 {
		t.Errorf("p=%v, want 4", p)
	}
	if math.Abs(bvc-4.0/3.0) > 1e-12 || pbvc != 2.0/3.0 {
		t.Errorf("bvc=%v pbvc=%v", bvc, pbvc)
	}
	// Cutoff.
	if p, _, _ := calcPressure(1e-9, 0, 1e-7, 0); p != 0 {
		t.Errorf("cutoff failed: %v", p)
	}
	// Floor.
	if p, _, _ := calcPressure(-5, 0, 1e-7, 0); p != 0 {
		t.Errorf("pmin floor failed: %v", p)
	}
	if p, _, _ := calcPressure(-5, 0, 1e-7, -1); p != -1 {
		t.Errorf("negative pmin floor: %v", p)
	}
}

func TestEOSIdleElementStaysIdle(t *testing.T) {
	// An element with no volume change, no q and no energy must stay
	// exactly at rest through the EOS.
	d := New(3, Defaults())
	d.E[0] = 0 // remove the blast for this test
	for e := range d.vnew {
		d.vnew[e] = 1
	}
	team := par.NewTeam(1)
	defer team.Close()
	if err := d.applyMaterialProperties(team); err != nil {
		t.Fatal(err)
	}
	for e := 0; e < d.Mesh.NumElem; e++ {
		if d.E[e] != 0 || d.P[e] != 0 || d.Q[e] != 0 || d.V[e] != 1 {
			t.Fatalf("idle elem %d changed: e=%v p=%v q=%v v=%v", e, d.E[e], d.P[e], d.Q[e], d.V[e])
		}
	}
}

func TestEOSCompressionHeats(t *testing.T) {
	// Compressing an energized element must raise pressure and energy
	// (adiabatic compression does positive work on the material).
	d := New(2, Defaults())
	e := 0
	d.E[e] = 10
	d.P[e] = 2.0 / 3.0 * 10
	for i := range d.vnew {
		d.vnew[i] = 1
	}
	d.vnew[e] = 0.9
	d.Delv[e] = -0.1
	team := par.NewTeam(1)
	defer team.Close()
	if err := d.applyMaterialProperties(team); err != nil {
		t.Fatal(err)
	}
	if d.E[e] <= 10 {
		t.Errorf("compression did not heat: e=%v", d.E[e])
	}
	if d.P[e] <= 2.0/3.0*10 {
		t.Errorf("compression did not pressurize: p=%v", d.P[e])
	}
	if d.V[e] != 0.9 {
		t.Errorf("volume not updated: %v", d.V[e])
	}
	if d.SS[e] <= 0 {
		t.Errorf("sound speed %v", d.SS[e])
	}
}

func TestQStopAborts(t *testing.T) {
	p := Defaults()
	p.QStop = 1e-20 // any viscosity triggers the abort
	d := New(4, p)
	team := par.NewTeam(1)
	defer team.Close()
	var err error
	for c := 0; c < 20 && err == nil; c++ {
		err = d.Step(team, Original())
	}
	if err == nil {
		t.Error("QStop never triggered")
	}
}

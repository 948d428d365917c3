package ebeam

import (
	"math"
	"testing"
	"testing/quick"

	"maskfrac/internal/geom"
	"maskfrac/internal/raster"
)

const sigma = 6.25 // paper's σ in nm

func model() *Model { return NewModel(sigma) }

func TestNewModelPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewModel(0) did not panic")
		}
	}()
	NewModel(0)
}

func TestEdgeProfileBasics(t *testing.T) {
	m := model()
	if got := m.EdgeProfile(0); math.Abs(got-0.5) > 1e-6 {
		t.Errorf("P(0) = %v, want 0.5", got)
	}
	if got := m.EdgeProfile(100); got != 1 {
		t.Errorf("P(+inf) = %v", got)
	}
	if got := m.EdgeProfile(-100); got != 0 {
		t.Errorf("P(-inf) = %v", got)
	}
	// symmetry: P(d) + P(-d) = 1
	for _, d := range []float64{0.3, 1, 2.5, 6.25, 10} {
		if s := m.EdgeProfile(d) + m.EdgeProfile(-d); math.Abs(s-1) > 1e-5 {
			t.Errorf("P(%v)+P(-%v) = %v", d, d, s)
		}
	}
}

func TestEdgeProfileLUTAccuracy(t *testing.T) {
	m := model()
	for d := -20.0; d <= 20; d += 0.0137 {
		lut := m.EdgeProfile(d)
		exact := m.EdgeProfileExact(d)
		// clamping beyond 3σ introduces at most erfc(3)/2 ≈ 1.1e-5
		if math.Abs(lut-exact) > 2e-5 {
			t.Fatalf("LUT error at d=%v: %v vs %v", d, lut, exact)
		}
	}
}

func TestEdgeProfileMonotone(t *testing.T) {
	m := model()
	prev := -1.0
	for d := -19.0; d <= 19; d += 0.1 {
		v := m.EdgeProfile(d)
		if v < prev {
			t.Fatalf("profile not monotone at d=%v", d)
		}
		prev = v
	}
}

func TestProfileInv(t *testing.T) {
	m := model()
	for _, v := range []float64{0.01, 0.1, 0.25, 0.5, 0.7071, 0.9, 0.99} {
		d := m.ProfileInv(v)
		if got := m.EdgeProfile(d); math.Abs(got-v) > 1e-4 {
			t.Errorf("P(P^-1(%v)) = %v", v, got)
		}
	}
	if got := m.ProfileInv(0.5); math.Abs(got) > 1e-3 {
		t.Errorf("P^-1(0.5) = %v, want 0", got)
	}
	if m.ProfileInv(0) != -3*sigma || m.ProfileInv(1) != 3*sigma {
		t.Error("clamped inverse wrong")
	}
}

func TestProfileInvQuick(t *testing.T) {
	m := model()
	f := func(raw uint16) bool {
		v := 0.001 + 0.998*float64(raw)/65535
		d := m.ProfileInv(v)
		return math.Abs(m.EdgeProfile(d)-v) < 1e-3
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestShotIntensityCenterAndEdges(t *testing.T) {
	m := model()
	// a shot much larger than 6σ: center dose 1, edge dose 0.5,
	// corner dose 0.25
	s := geom.Rect{X0: 0, Y0: 0, X1: 100, Y1: 100}
	if got := m.ShotIntensity(s, geom.Pt(50, 50)); math.Abs(got-1) > 1e-5 {
		t.Errorf("center = %v", got)
	}
	if got := m.ShotIntensity(s, geom.Pt(0, 50)); math.Abs(got-0.5) > 1e-5 {
		t.Errorf("edge = %v", got)
	}
	if got := m.ShotIntensity(s, geom.Pt(0, 0)); math.Abs(got-0.25) > 1e-5 {
		t.Errorf("corner = %v", got)
	}
	if got := m.ShotIntensity(s, geom.Pt(-30, 50)); got != 0 {
		t.Errorf("far outside = %v", got)
	}
}

func TestShotIntensitySmallShot(t *testing.T) {
	m := model()
	// a shot comparable to σ never reaches full dose
	s := geom.Rect{X0: 0, Y0: 0, X1: 5, Y1: 5}
	center := m.ShotIntensity(s, geom.Pt(2.5, 2.5))
	if center >= 1 || center <= 0.1 {
		t.Errorf("small shot center = %v", center)
	}
	// analytic check: E(2.5;0,5) = P(2.5)-P(-2.5)
	e := m.EdgeProfileExact(2.5) - m.EdgeProfileExact(-2.5)
	if math.Abs(center-e*e) > 1e-4 {
		t.Errorf("separable mismatch: %v vs %v", center, e*e)
	}
}

func TestShotIntensitySymmetryQuick(t *testing.T) {
	m := model()
	s := geom.Rect{X0: -10, Y0: -4, X1: 10, Y1: 4}
	f := func(xr, yr int16) bool {
		x := float64(xr) / 1000
		y := float64(yr) / 1000
		a := m.ShotIntensity(s, geom.Pt(x, y))
		b := m.ShotIntensity(s, geom.Pt(-x, y))
		c := m.ShotIntensity(s, geom.Pt(x, -y))
		return math.Abs(a-b) < 1e-9 && math.Abs(a-c) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSupportBox(t *testing.T) {
	m := model()
	g := raster.Grid{X0: 0, Y0: 0, Pitch: 1, W: 100, H: 100}
	s := geom.Rect{X0: 40, Y0: 40, X1: 50, Y1: 50}
	i0, j0, i1, j1 := m.SupportBox(g, s)
	// 3σ = 18.75 → box [21.25, 68.75]
	if i0 != 21 || j0 != 21 || i1 != 68 || j1 != 68 {
		t.Errorf("SupportBox = (%d,%d)-(%d,%d)", i0, j0, i1, j1)
	}
	// clamped at grid borders
	s2 := geom.Rect{X0: -5, Y0: -5, X1: 2, Y1: 200}
	i0, j0, i1, j1 = m.SupportBox(g, s2)
	if i0 != 0 || j0 != 0 || j1 != 99 {
		t.Errorf("clamped SupportBox = (%d,%d)-(%d,%d)", i0, j0, i1, j1)
	}
}

func TestAccumulateShotMatchesDirect(t *testing.T) {
	m := model()
	g := raster.Grid{X0: 0, Y0: 0, Pitch: 1, W: 60, H: 60}
	s := geom.Rect{X0: 20, Y0: 25, X1: 40, Y1: 35}
	f := raster.NewField(g)
	m.AccumulateShot(f, s, 1)
	// the accumulate path reads the float32 strip kernels, the point
	// path the float64 reference: agreement is bounded by ProfileTol32
	// per axis factor, ~2e-6 on the 2D product
	for j := 0; j < g.H; j += 3 {
		for i := 0; i < g.W; i += 3 {
			want := m.ShotIntensity(s, g.Center(i, j))
			if got := f.V[g.Index(i, j)]; math.Abs(got-want) > 2*ProfileTol32 {
				t.Errorf("(%d,%d): %v vs %v", i, j, got, want)
			}
		}
	}
}

func TestAccumulateShotAddRemove(t *testing.T) {
	m := model()
	g := raster.Grid{X0: 0, Y0: 0, Pitch: 1, W: 40, H: 40}
	s1 := geom.Rect{X0: 5, Y0: 5, X1: 20, Y1: 20}
	s2 := geom.Rect{X0: 15, Y0: 10, X1: 35, Y1: 25}
	f := raster.NewField(g)
	m.AccumulateShot(f, s1, 1)
	m.AccumulateShot(f, s2, 1)
	m.AccumulateShot(f, s2, -1)
	only1 := m.DoseMap(g, []geom.Rect{s1})
	for k := range f.V {
		if math.Abs(f.V[k]-only1.V[k]) > 1e-12 {
			t.Fatalf("add/remove not exact at %d: %v vs %v", k, f.V[k], only1.V[k])
		}
	}
}

func TestDoseMapSuperposition(t *testing.T) {
	m := model()
	g := raster.Grid{X0: 0, Y0: 0, Pitch: 1, W: 50, H: 50}
	shots := []geom.Rect{
		{X0: 5, Y0: 5, X1: 25, Y1: 20},
		{X0: 20, Y0: 15, X1: 45, Y1: 30},
	}
	total := m.DoseMap(g, shots)
	p := geom.Pt(22.5, 17.5)
	want := m.ShotIntensity(shots[0], p) + m.ShotIntensity(shots[1], p)
	i, j := g.PixelOf(p)
	if got := total.V[g.Index(i, j)]; math.Abs(got-want) > 4*ProfileTol32 {
		t.Errorf("superposition: %v vs %v", got, want)
	}
}

func TestCornerDepth(t *testing.T) {
	m := model()
	d := m.CornerDepth(0.5)
	// x = P^-1(sqrt(0.5)): erf(x/σ) = 2·0.7071-1 = 0.41421 → x ≈ 0.3829σ
	want := math.Sqrt2 * 0.3829 * sigma
	if math.Abs(d-want) > 0.05 {
		t.Errorf("CornerDepth = %v, want ≈ %v", d, want)
	}
}

func TestCornerContourOnIso(t *testing.T) {
	m := model()
	pts := m.CornerContour(0.5, 64)
	if len(pts) < 32 {
		t.Fatalf("too few contour points: %d", len(pts))
	}
	for _, p := range pts {
		dose := m.EdgeProfile(-p.X) * m.EdgeProfile(-p.Y)
		if math.Abs(dose-0.5) > 1e-3 {
			t.Errorf("contour point %v has dose %v", p, dose)
		}
	}
}

func TestLthReasonableRange(t *testing.T) {
	m := model()
	lth := m.Lth(0.5, 2)
	// hand computation: contour point with diagonal depth
	// depth+2γ ≈ 7.39 nm sits near (−0.05, −10.39) → Lth ≈ 14.6 nm
	if lth < 12 || lth > 18 {
		t.Errorf("Lth(0.5, 2) = %v, want ≈ 14.6", lth)
	}
}

func TestLthMonotoneInGamma(t *testing.T) {
	m := model()
	prev := 0.0
	for _, gamma := range []float64{0.5, 1, 2, 3, 4} {
		l := m.Lth(0.5, gamma)
		if l <= prev {
			t.Errorf("Lth not increasing at gamma=%v: %v <= %v", gamma, l, prev)
		}
		prev = l
	}
}

func TestLthScalesWithSigma(t *testing.T) {
	// larger blur rounds corners more gently → longer 45° segments
	small := NewModel(3).Lth(0.5, 2)
	large := NewModel(12).Lth(0.5, 2)
	if large <= small {
		t.Errorf("Lth should grow with sigma: σ=3 → %v, σ=12 → %v", small, large)
	}
}

func TestDoubleGaussianBasics(t *testing.T) {
	m := NewDoubleGaussian(6.25, 30, 0.5)
	if m.Components() != 2 {
		t.Fatalf("components = %d", m.Components())
	}
	if w := m.Weight(0) + m.Weight(1); math.Abs(w-1) > 1e-12 {
		t.Errorf("weights sum to %v", w)
	}
	if m.Support() != 90 {
		t.Errorf("support = %v, want 3*30", m.Support())
	}
	// combined profile is still a monotone 0..1 edge profile
	if got := m.EdgeProfile(0); math.Abs(got-0.5) > 1e-6 {
		t.Errorf("P(0) = %v", got)
	}
	if m.EdgeProfile(-100) != 0 || m.EdgeProfile(100) != 1 {
		t.Error("profile clamps wrong")
	}
	prev := -1.0
	for d := -90.0; d <= 90; d += 0.5 {
		v := m.EdgeProfile(d)
		if v < prev {
			t.Fatalf("combined profile not monotone at %v", d)
		}
		prev = v
	}
}

func TestDoubleGaussianEtaZeroDegenerates(t *testing.T) {
	a := NewDoubleGaussian(6.25, 30, 0)
	b := NewModel(6.25)
	if a.Components() != 1 {
		t.Fatalf("eta=0 has %d components", a.Components())
	}
	for d := -18.0; d <= 18; d += 1.3 {
		if math.Abs(a.EdgeProfile(d)-b.EdgeProfile(d)) > 1e-12 {
			t.Fatalf("eta=0 profile differs at %v", d)
		}
	}
}

func TestDoubleGaussianShotIntensity(t *testing.T) {
	m := NewDoubleGaussian(6.25, 25, 0.4)
	s := geom.Rect{X0: 0, Y0: 0, X1: 200, Y1: 200}
	// deep inside a huge shot the dose saturates to 1 for any PSF
	if got := m.ShotIntensity(s, geom.Pt(100, 100)); math.Abs(got-1) > 1e-4 {
		t.Errorf("center = %v", got)
	}
	// at a long straight edge the dose is 0.5
	if got := m.ShotIntensity(s, geom.Pt(0, 100)); math.Abs(got-0.5) > 1e-4 {
		t.Errorf("edge = %v", got)
	}
	// backscatter spreads dose farther out than the forward Gaussian
	single := NewModel(6.25)
	d := 15.0
	if m.ShotIntensity(s, geom.Pt(-d, 100)) <= single.ShotIntensity(s, geom.Pt(-d, 100)) {
		t.Error("backscatter tail not wider than forward-only")
	}
}

func TestDoubleGaussianAccumulateMatchesPoint(t *testing.T) {
	m := NewDoubleGaussian(6.25, 20, 0.3)
	g := raster.Grid{X0: 0, Y0: 0, Pitch: 1, W: 80, H: 80}
	s := geom.Rect{X0: 25, Y0: 30, X1: 55, Y1: 50}
	f := raster.NewField(g)
	m.AccumulateShot(f, s, 1)
	// float32 strip kernels vs the float64 point path: see ProfileTol32
	for j := 0; j < g.H; j += 7 {
		for i := 0; i < g.W; i += 7 {
			want := m.ShotIntensity(s, g.Center(i, j))
			if got := f.V[g.Index(i, j)]; math.Abs(got-want) > 2*ProfileTol32 {
				t.Fatalf("(%d,%d): %v vs %v", i, j, got, want)
			}
		}
	}
}

func TestDoubleGaussianPanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewDoubleGaussian(0, 10, 0.5) },
		func() { NewDoubleGaussian(5, 0, 0.5) },
		func() { NewDoubleGaussian(5, 10, -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("no panic for invalid double-Gaussian params")
				}
			}()
			f()
		}()
	}
}

func TestLthDoubleGaussian(t *testing.T) {
	// backscatter softens the profile; Lth stays finite and positive
	m := NewDoubleGaussian(6.25, 25, 0.3)
	lth := m.Lth(0.5, 2)
	if lth <= 0 || lth > 2*m.Support() {
		t.Errorf("double-Gaussian Lth = %v", lth)
	}
}

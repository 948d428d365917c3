package metrics

import (
	"math"
	"testing"

	"maskfrac/internal/cover"
	"maskfrac/internal/geom"
)

func squareProblem(t *testing.T, side float64) *cover.Problem {
	t.Helper()
	pg := geom.Polygon{geom.Pt(0, 0), geom.Pt(side, 0), geom.Pt(side, side), geom.Pt(0, side)}
	p, err := cover.NewProblem(pg, cover.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestEPEExactShot(t *testing.T) {
	// a shot exactly on the target prints edges exactly at the boundary
	// away from corners: tiny mean EPE, max limited by corner rounding
	p := squareProblem(t, 80)
	st := EPE(p.Model, p.Params.Rho, p.Targets, []geom.Rect{{X0: 0, Y0: 0, X1: 80, Y1: 80}}, 2)
	if st.Samples == 0 {
		t.Fatal("no samples")
	}
	if math.Abs(st.Mean) > 0.5 {
		t.Errorf("mean EPE = %v, want ~0", st.Mean)
	}
	if st.Max > 5.5 {
		t.Errorf("max EPE = %v, corner rounding near samples adjacent to corners stays under ~5", st.Max)
	}
}

func TestEPEBiasedShot(t *testing.T) {
	// a shot biased outward by 1.5 nm shifts the mean EPE positive
	p := squareProblem(t, 80)
	st := EPE(p.Model, p.Params.Rho, p.Targets, []geom.Rect{{X0: -1.5, Y0: -1.5, X1: 81.5, Y1: 81.5}}, 2)
	if st.Mean < 0.75 {
		t.Errorf("mean EPE = %v, want about +1.5", st.Mean)
	}
	under := EPE(p.Model, p.Params.Rho, p.Targets, []geom.Rect{{X0: 1.5, Y0: 1.5, X1: 78.5, Y1: 78.5}}, 2)
	if under.Mean > -0.75 {
		t.Errorf("undersized shot mean EPE = %v, want about -1.5", under.Mean)
	}
}

func TestEPENoShots(t *testing.T) {
	p := squareProblem(t, 80)
	st := EPE(p.Model, p.Params.Rho, p.Targets, nil, 2)
	// dose never crosses rho: every sample clamps to the inward window
	if st.Mean > -5 {
		t.Errorf("no-shot mean EPE = %v, want clamped negative", st.Mean)
	}
	if st.P95 < st.RMS/2 {
		t.Errorf("inconsistent stats: %+v", st)
	}
}

func TestDoseSlope(t *testing.T) {
	p := squareProblem(t, 80)
	mean, min := DoseSlope(p, []geom.Rect{{X0: 0, Y0: 0, X1: 80, Y1: 80}}, 4)
	if mean <= 0 || min <= 0 {
		t.Fatalf("slope = %v/%v", mean, min)
	}
	// analytic slope of the erf profile at the edge: 1/(σ√π) ≈ 0.0903
	want := 1 / (6.25 * math.Sqrt(math.Pi))
	if math.Abs(mean-want) > 0.02 {
		t.Errorf("mean slope = %v, want ≈ %v", mean, want)
	}
	// corners have shallower slope than straight edges
	if min >= mean {
		t.Errorf("min slope %v not below mean %v", min, mean)
	}
}

func TestDoseSlopeEmpty(t *testing.T) {
	p := squareProblem(t, 80)
	mean, min := DoseSlope(p, nil, 4)
	if mean != 0 || min != 0 {
		t.Errorf("empty shots slope = %v/%v", mean, min)
	}
}

func TestSlivers(t *testing.T) {
	shots := []geom.Rect{
		{X0: 0, Y0: 0, X1: 100, Y1: 4}, // sliver (min dim 4)
		{X0: 0, Y0: 0, X1: 50, Y1: 50}, // square
		{X0: 0, Y0: 0, X1: 30, Y1: 10}, // fine
	}
	st := Slivers(shots, 6)
	if st.Shots != 3 || st.Slivers != 1 {
		t.Errorf("stats = %+v", st)
	}
	if st.MinDim != 4 {
		t.Errorf("MinDim = %v", st.MinDim)
	}
	wantAspect := (25.0 + 1.0 + 3.0) / 3
	if math.Abs(st.MeanAspect-wantAspect) > 1e-9 {
		t.Errorf("MeanAspect = %v, want %v", st.MeanAspect, wantAspect)
	}
	empty := Slivers(nil, 6)
	if empty.Shots != 0 || empty.MinDim != 0 {
		t.Errorf("empty stats = %+v", empty)
	}
}

func TestWriteTimeProxy(t *testing.T) {
	one := WriteTimeProxy([]geom.Rect{{X0: 0, Y0: 0, X1: 10, Y1: 10}})
	two := WriteTimeProxy([]geom.Rect{
		{X0: 0, Y0: 0, X1: 10, Y1: 10},
		{X0: 0, Y0: 0, X1: 10, Y1: 10},
	})
	if two <= one {
		t.Error("proxy not monotone in count")
	}
	big := WriteTimeProxy([]geom.Rect{{X0: 0, Y0: 0, X1: 100, Y1: 100}})
	if big <= one {
		t.Error("proxy not monotone in area")
	}
}

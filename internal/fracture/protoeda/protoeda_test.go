package protoeda

import (
	"testing"

	"maskfrac/internal/cover"
	"maskfrac/internal/geom"
	"maskfrac/internal/shapegen"
)

func problem(t *testing.T, pg geom.Polygon) *cover.Problem {
	t.Helper()
	p, err := cover.NewProblem(pg, cover.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestFractureSquare(t *testing.T) {
	p := problem(t, geom.Polygon{geom.Pt(0, 0), geom.Pt(80, 0), geom.Pt(80, 80), geom.Pt(0, 80)})
	res := Fracture(p, 0)
	if res.Stats.Fail() != 0 {
		t.Errorf("square: %+v", res.Stats)
	}
	if len(res.Shots) > 3 {
		t.Errorf("square used %d shots", len(res.Shots))
	}
}

func TestFractureLShape(t *testing.T) {
	p := problem(t, geom.Polygon{
		geom.Pt(0, 0), geom.Pt(120, 0), geom.Pt(120, 50),
		geom.Pt(50, 50), geom.Pt(50, 120), geom.Pt(0, 120),
	})
	res := Fracture(p, 0)
	if res.Stats.Fail() > 2 {
		t.Errorf("L: %+v", res.Stats)
	}
	if len(res.Shots) > 4 {
		t.Errorf("L used %d shots", len(res.Shots))
	}
}

func TestFractureRGBShape(t *testing.T) {
	sh := shapegen.RGB(5, 4, cover.DefaultParams())
	if sh.Target == nil {
		t.Fatal("generation failed")
	}
	p := problem(t, sh.Target)
	res := Fracture(p, 0)
	if res.Stats.Fail() > 10 {
		t.Errorf("RGB: %+v", res.Stats)
	}
	if len(res.Shots) < sh.Known {
		t.Errorf("PROTO-EDA beat the certified optimum: %d < %d", len(res.Shots), sh.Known)
	}
}

func TestMergePassContainment(t *testing.T) {
	p := problem(t, geom.Polygon{geom.Pt(0, 0), geom.Pt(80, 0), geom.Pt(80, 80), geom.Pt(0, 80)})
	shots := []geom.Rect{
		{X0: 0, Y0: 0, X1: 80, Y1: 80},
		{X0: 10, Y0: 10, X1: 40, Y1: 40},
	}
	out := mergePass(p, shots)
	if len(out) != 1 {
		t.Errorf("containment not merged: %v", out)
	}
}

func TestMergePassAligned(t *testing.T) {
	p := problem(t, geom.Polygon{geom.Pt(0, 0), geom.Pt(80, 0), geom.Pt(80, 80), geom.Pt(0, 80)})
	shots := []geom.Rect{
		{X0: 0, Y0: 0, X1: 80, Y1: 42},
		{X0: 0.5, Y0: 40, X1: 79.5, Y1: 80},
	}
	out := mergePass(p, shots)
	if len(out) != 1 {
		t.Fatalf("aligned shots not merged: %v", out)
	}
	if out[0].H() < 79 {
		t.Errorf("merged extent wrong: %v", out[0])
	}
}

func TestInitialShotsProduceLegalSizes(t *testing.T) {
	p := problem(t, geom.Polygon{
		geom.Pt(0, 0), geom.Pt(120, 0), geom.Pt(120, 50),
		geom.Pt(50, 50), geom.Pt(50, 120), geom.Pt(0, 120),
	})
	shots := initialShots(p)
	if len(shots) == 0 {
		t.Fatal("no initial shots")
	}
	for _, s := range shots {
		if !p.MinSizeOK(s) {
			t.Errorf("initial shot %v below Lmin", s)
		}
	}
}

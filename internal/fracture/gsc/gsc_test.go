package gsc

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
	if len(res.Shots) == 0 || len(res.Shots) > 6 {
		t.Errorf("square used %d shots", len(res.Shots))
	}
	for _, s := range res.Shots {
		if !p.MinSizeOK(s) {
			t.Errorf("shot %v below Lmin", s)
		}
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
}

func TestFractureRGBShape(t *testing.T) {
	sh := shapegen.RGB(5, 4, cover.DefaultParams())
	if sh.Target == nil {
		t.Fatal("generation failed")
	}
	p := problem(t, sh.Target)
	res := Fracture(p, 0)
	if res.Stats.Fail() > 5 {
		t.Errorf("RGB: %+v", res.Stats)
	}
	// greedy set cover uses at least the certified optimum
	if len(res.Shots) < sh.Known {
		t.Errorf("GSC beat the certified optimum: %d < %d", len(res.Shots), sh.Known)
	}
}

func TestMaxShotsCap(t *testing.T) {
	p := problem(t, geom.Polygon{geom.Pt(0, 0), geom.Pt(80, 0), geom.Pt(80, 80), geom.Pt(0, 80)})
	res := Fracture(p, 1)
	if len(res.Shots) > 1 {
		t.Errorf("cap ignored: %d shots", len(res.Shots))
	}
}

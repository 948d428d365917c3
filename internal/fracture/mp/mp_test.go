package mp

import (
	"math"
	"testing"

	"maskfrac/internal/cover"
	"maskfrac/internal/geom"
	"maskfrac/internal/raster"
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
	if res.Stats.Fail() > 2 {
		t.Errorf("square: %+v", res.Stats)
	}
	if len(res.Shots) == 0 {
		t.Fatal("no shots")
	}
}

func TestFractureAGBShape(t *testing.T) {
	sh := shapegen.AGB(9, 4, cover.DefaultParams())
	if sh.Target == nil {
		t.Fatal("generation failed")
	}
	p := problem(t, sh.Target)
	res := Fracture(p, 0)
	if res.Stats.Fail() > 10 {
		t.Errorf("AGB: %+v", res.Stats)
	}
	if len(res.Shots) < sh.Known {
		t.Errorf("MP beat the certified optimum: %d < %d", len(res.Shots), sh.Known)
	}
}

func TestMaxShotsCap(t *testing.T) {
	p := problem(t, geom.Polygon{geom.Pt(0, 0), geom.Pt(80, 0), geom.Pt(80, 80), geom.Pt(0, 80)})
	res := Fracture(p, 1)
	if len(res.Shots) > 1 {
		t.Errorf("cap ignored: %d shots", len(res.Shots))
	}
}

func TestBuildSATAndBoxSum(t *testing.T) {
	g := raster.Grid{Pitch: 1, W: 4, H: 3}
	f := raster.NewField(g)
	// values 1..12 row-major
	for k := range f.V {
		f.V[k] = float64(k + 1)
	}
	sat := make([]float64, (g.W+1)*(g.H+1))
	buildSAT(f, sat)
	// full sum = 78
	if got := boxSum(g, sat, geom.Rect{X0: 0, Y0: 0, X1: 4, Y1: 3}); got != 78 {
		t.Errorf("full sum = %v", got)
	}
	// single pixel (1,1): value 6
	if got := boxSum(g, sat, geom.Rect{X0: 1, Y0: 1, X1: 2, Y1: 2}); got != 6 {
		t.Errorf("single pixel = %v", got)
	}
	// 2x2 block at origin: 1+2+5+6
	if got := boxSum(g, sat, geom.Rect{X0: 0, Y0: 0, X1: 2, Y1: 2}); got != 14 {
		t.Errorf("2x2 = %v", got)
	}
	// out of range clamps
	if got := boxSum(g, sat, geom.Rect{X0: -10, Y0: -10, X1: 100, Y1: 100}); got != 78 {
		t.Errorf("clamped = %v", got)
	}
}

func TestBoxSumMatchesBrute(t *testing.T) {
	g := raster.Grid{Pitch: 1, W: 9, H: 7}
	f := raster.NewField(g)
	for k := range f.V {
		f.V[k] = math.Sin(float64(k))
	}
	sat := make([]float64, (g.W+1)*(g.H+1))
	buildSAT(f, sat)
	for _, r := range []geom.Rect{
		{X0: 1, Y0: 2, X1: 5, Y1: 6},
		{X0: 0, Y0: 0, X1: 9, Y1: 1},
		{X0: 8, Y0: 6, X1: 9, Y1: 7},
	} {
		want := 0.0
		for j := 0; j < g.H; j++ {
			for i := 0; i < g.W; i++ {
				if r.Contains(g.Center(i, j)) {
					want += f.V[g.Index(i, j)]
				}
			}
		}
		if got := boxSum(g, sat, r); math.Abs(got-want) > 1e-9 {
			t.Errorf("box %v: %v vs %v", r, got, want)
		}
	}
}

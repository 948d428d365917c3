package bounds

import (
	"fmt"
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

func TestSquareBounds(t *testing.T) {
	p := problem(t, geom.Polygon{geom.Pt(0, 0), geom.Pt(80, 0), geom.Pt(80, 80), geom.Pt(0, 80)})
	b := Compute(p)
	if b.Upper != 1 {
		t.Errorf("square upper = %d, want 1 (single rectangle)", b.Upper)
	}
	if b.Lower < 1 {
		t.Errorf("square lower = %d", b.Lower)
	}
}

func TestLBounds(t *testing.T) {
	p := problem(t, geom.Polygon{
		geom.Pt(0, 0), geom.Pt(120, 0), geom.Pt(120, 50),
		geom.Pt(50, 50), geom.Pt(50, 120), geom.Pt(0, 120),
	})
	b := Compute(p)
	if b.Upper != 2 {
		t.Errorf("L upper = %d, want 2", b.Upper)
	}
	if b.Lower < 1 || b.Lower > 4 {
		t.Errorf("L lower = %d out of sane range", b.Lower)
	}
}

func TestUpperGrowsWithComplexity(t *testing.T) {
	simple := Compute(problem(t, geom.Polygon{geom.Pt(0, 0), geom.Pt(80, 0), geom.Pt(80, 80), geom.Pt(0, 80)}))
	complexShape := shapegen.ILTShape(104, 5)
	rich := Compute(problem(t, complexShape.Target))
	if rich.Upper <= simple.Upper {
		t.Errorf("complex shape upper (%d) not larger than square (%d)", rich.Upper, simple.Upper)
	}
}

func TestUpperIsAchievable(t *testing.T) {
	// the upper bound comes from a real partition, so a feasible
	// non-overlapping decomposition with that count exists; sanity-check
	// it is positive and bounded for the generated suite
	params := cover.DefaultParams()
	sh := shapegen.RGB(5, 4, params)
	if sh.Target == nil {
		t.Fatal("generation failed")
	}
	b := Compute(problem(t, sh.Target))
	if b.Upper < sh.Known {
		t.Errorf("partition upper bound %d below certified optimal %d", b.Upper, sh.Known)
	}
	if b.Upper > 10*sh.Known {
		t.Errorf("upper bound %d absurdly large for optimal %d", b.Upper, sh.Known)
	}
}

// TestBoundsOrdered checks 1 <= Lower <= Upper on small squares, whose
// corner graph has no edges, and on the generated Table 3 suite.
func TestBoundsOrdered(t *testing.T) {
	params := cover.DefaultParams()
	shapes := map[string]geom.Polygon{}
	for side := 8.0; side <= 40; side++ {
		shapes[fmt.Sprintf("square-%g", side)] = geom.Polygon{
			geom.Pt(0, 0), geom.Pt(side, 0), geom.Pt(side, side), geom.Pt(0, side)}
	}
	for _, sh := range append(shapegen.AGBSuite(params), shapegen.RGBSuite(params)...) {
		shapes[sh.Name] = sh.Target
	}
	for name, pg := range shapes {
		if b := Compute(problem(t, pg)); b.Lower < 1 || b.Lower > b.Upper {
			t.Errorf("%s: lower %d, upper %d", name, b.Lower, b.Upper)
		}
	}
}

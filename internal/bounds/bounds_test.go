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
	if ub := Upper(p); ub != 1 {
		t.Errorf("square upper = %d, want 1 (single rectangle)", ub)
	}
}

func TestLBounds(t *testing.T) {
	p := problem(t, geom.Polygon{
		geom.Pt(0, 0), geom.Pt(120, 0), geom.Pt(120, 50),
		geom.Pt(50, 50), geom.Pt(50, 120), geom.Pt(0, 120),
	})
	if ub := Upper(p); ub != 2 {
		t.Errorf("L upper = %d, want 2", ub)
	}
}

func TestUpperGrowsWithComplexity(t *testing.T) {
	simple := Upper(problem(t, geom.Polygon{geom.Pt(0, 0), geom.Pt(80, 0), geom.Pt(80, 80), geom.Pt(0, 80)}))
	complexShape := shapegen.ILTShape(104, 5)
	rich := Upper(problem(t, complexShape.Target))
	if rich <= simple {
		t.Errorf("complex shape upper (%d) not larger than square (%d)", rich, simple)
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
	ub := Upper(problem(t, sh.Target))
	if ub < sh.Known {
		t.Errorf("partition upper bound %d below certified optimal %d", ub, sh.Known)
	}
	if ub > 10*sh.Known {
		t.Errorf("upper bound %d absurdly large for optimal %d", ub, sh.Known)
	}
}

// TestBoundsOrdered checks that the upper bound is at least one shot on
// small squares and at least the certified optimum on the generated
// Table 3 suite.
func TestBoundsOrdered(t *testing.T) {
	params := cover.DefaultParams()
	shapes := map[string]shapegen.Shape{}
	for side := 8.0; side <= 40; side++ {
		shapes[fmt.Sprintf("square-%g", side)] = shapegen.Shape{Target: geom.Polygon{
			geom.Pt(0, 0), geom.Pt(side, 0), geom.Pt(side, side), geom.Pt(0, side)}, Known: 1}
	}
	for _, sh := range append(shapegen.AGBSuite(params), shapegen.RGBSuite(params)...) {
		shapes[sh.Name] = sh
	}
	for name, sh := range shapes {
		if ub := Upper(problem(t, sh.Target)); ub < sh.Known {
			t.Errorf("%s: upper %d below the optimum %d", name, ub, sh.Known)
		}
	}
}

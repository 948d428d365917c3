package lshape

import (
	"testing"

	"maskfrac/internal/cover"
	"maskfrac/internal/geom"
	"maskfrac/internal/shapegen"
)

// checkPairs asserts the pair contract: i < j in range, every rectangle
// in at most one pair, and every pair's union an L.
func checkPairs(t *testing.T, rects []geom.Rect, pairs [][2]int) {
	t.Helper()
	used := make(map[int]bool)
	for _, pr := range pairs {
		i, j := pr[0], pr[1]
		if i < 0 || i >= j || j >= len(rects) {
			t.Fatalf("malformed pair %v over %d rects", pr, len(rects))
		}
		if used[i] || used[j] {
			t.Fatalf("rect in two pairs: %v (pairs %v)", pr, pairs)
		}
		used[i], used[j] = true, true
		if !cover.UnionIsLShot(rects[i], rects[j]) {
			t.Errorf("pair %v: %v ∪ %v is not an L", pr, rects[i], rects[j])
		}
	}
}

// TestUnionIsL pins the L-compatibility verdicts the partition pairing
// relies on: interior-disjoint rectangles against a 10×4 base pair into
// an L exactly when they share part of a side aligned at one end.
func TestUnionIsL(t *testing.T) {
	base := geom.Rect{X0: 0, Y0: 0, X1: 10, Y1: 4}
	cases := []struct {
		name string
		b    geom.Rect
		want bool
	}{
		{"L: right of base, bottom aligned, shorter", geom.Rect{X0: 10, Y0: 0, X1: 14, Y1: 2}, true},
		{"L: above base, left aligned", geom.Rect{X0: 0, Y0: 4, X1: 4, Y1: 10}, true},
		{"rect: full side both ends aligned", geom.Rect{X0: 10, Y0: 0, X1: 14, Y1: 4}, false},
		{"T: centered, no end aligned", geom.Rect{X0: 10, Y0: 1, X1: 14, Y1: 3}, false},
		{"Z: partial overlap", geom.Rect{X0: 10, Y0: 2, X1: 14, Y1: 6}, false},
		{"corner touch only", geom.Rect{X0: 10, Y0: 4, X1: 14, Y1: 8}, false},
		{"disjoint", geom.Rect{X0: 20, Y0: 0, X1: 24, Y1: 4}, false},
		{"overlapping", geom.Rect{X0: 5, Y0: 0, X1: 14, Y1: 4}, false},
		{"sticking beyond, one end aligned", geom.Rect{X0: 10, Y0: 0, X1: 14, Y1: 8}, true},
	}
	for _, tc := range cases {
		if got := cover.UnionIsLShot(base, tc.b); got != tc.want {
			t.Errorf("%s: UnionIsLShot = %v, want %v", tc.name, got, tc.want)
		}
		// symmetric
		if got := cover.UnionIsLShot(tc.b, base); got != tc.want {
			t.Errorf("%s (swapped): UnionIsLShot = %v, want %v", tc.name, got, tc.want)
		}
		// and the pairing forms the L exactly when the verdict says so
		pairs := pairRects([]geom.Rect{base, tc.b})
		if got := len(pairs) == 1; got != tc.want {
			t.Errorf("%s: pairRects = %v, want paired %v", tc.name, pairs, tc.want)
		}
	}
}

func TestPairSimpleL(t *testing.T) {
	rects := []geom.Rect{
		{X0: 0, Y0: 0, X1: 10, Y1: 4},
		{X0: 0, Y0: 4, X1: 4, Y1: 10},
	}
	pairs := pairRects(rects)
	if len(pairs) != 1 || pairs[0] != [2]int{0, 1} {
		t.Fatalf("L pair not formed: %v", pairs)
	}
}

func TestPairLeftover(t *testing.T) {
	rects := []geom.Rect{
		{X0: 0, Y0: 0, X1: 10, Y1: 4},
		{X0: 0, Y0: 4, X1: 4, Y1: 10},
		{X0: 50, Y0: 50, X1: 60, Y1: 60}, // isolated
	}
	pairs := pairRects(rects)
	checkPairs(t, rects, pairs)
	if len(pairs) != 1 || pairs[0] != [2]int{0, 1} {
		t.Fatalf("pairs = %v, want the L only", pairs)
	}
	if flashes := len(rects) - len(pairs); flashes != 2 {
		t.Errorf("flashes = %d, want 2 (one L, one rectangle)", flashes)
	}
}

func TestPairNeverReusesRect(t *testing.T) {
	// a staircase partition: the middle step is L-compatible with both
	// neighbors but can join only one of them
	rects := []geom.Rect{
		{X0: 0, Y0: 0, X1: 12, Y1: 4},
		{X0: 0, Y0: 4, X1: 8, Y1: 8},
		{X0: 0, Y0: 8, X1: 4, Y1: 12},
	}
	pairs := pairRects(rects)
	checkPairs(t, rects, pairs)
	if len(pairs) != 1 {
		t.Errorf("pairs = %v, want exactly one", pairs)
	}
}

func TestFractureLShapeTarget(t *testing.T) {
	// an L target: 2 rectangles, 1 L-shot
	pg := geom.Polygon{
		geom.Pt(0, 0), geom.Pt(120, 0), geom.Pt(120, 50),
		geom.Pt(50, 50), geom.Pt(50, 120), geom.Pt(0, 120),
	}
	p, err := cover.NewProblem(pg, cover.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	sol, err := Fracture(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(sol.Shots) != 2 || len(sol.Pairs) != 1 {
		t.Errorf("%d rects, %d pairs; want 2 rects in one L-shot", len(sol.Shots), len(sol.Pairs))
	}
	checkPairs(t, sol.Shots, sol.Pairs)
	// non-model-based fracture: corner rounding violations only
	if st := p.EvaluatePaired(sol.Shots, sol.Pairs); st.FailOff != 0 {
		t.Errorf("overdose from a partition-based fracture: %+v", st)
	}
}

func TestFractureReducesShotsVsPartition(t *testing.T) {
	// staircase: adjacent steps are L-compatible, so pairing saves
	// flashes
	pg := geom.Polygon{
		geom.Pt(0, 0), geom.Pt(80, 0), geom.Pt(80, 20), geom.Pt(60, 20),
		geom.Pt(60, 40), geom.Pt(40, 40), geom.Pt(40, 60), geom.Pt(20, 60),
		geom.Pt(20, 80), geom.Pt(0, 80),
	}
	p, err := cover.NewProblem(pg, cover.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	sol, err := Fracture(p)
	if err != nil {
		t.Fatal(err)
	}
	checkPairs(t, sol.Shots, sol.Pairs)
	if len(sol.Pairs) == 0 {
		t.Errorf("no pairing benefit: %d rects, no pairs", len(sol.Shots))
	}
}

func TestFractureCurvilinear(t *testing.T) {
	sh := shapegen.ILTShape(101, 2)
	p, err := cover.NewProblem(sh.Target, cover.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	sol, err := Fracture(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(sol.Shots) == 0 {
		t.Fatal("no rectangles for a curvilinear target")
	}
	checkPairs(t, sol.Shots, sol.Pairs)
}

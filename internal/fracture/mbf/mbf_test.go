package mbf

import (
	"context"
	"math"
	"testing"

	"maskfrac/internal/cover"
	"maskfrac/internal/geom"
)

func poly(xy ...float64) geom.Polygon {
	pg := make(geom.Polygon, len(xy)/2)
	for i := range pg {
		pg[i] = geom.Pt(xy[2*i], xy[2*i+1])
	}
	return pg
}

func mustProblem(t *testing.T, pg geom.Polygon) *cover.Problem {
	t.Helper()
	p, err := cover.NewProblem(pg, cover.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestFractureSquare(t *testing.T) {
	p := mustProblem(t, poly(0, 0, 100, 0, 100, 100, 0, 100))
	res := Fracture(p, Options{})
	if !res.Stats.Feasible() {
		t.Errorf("square not feasible: %+v (shots %v)", res.Stats, res.Shots)
	}
	if res.ShotCount() > 3 {
		t.Errorf("square used %d shots, want <= 3", res.ShotCount())
	}
	for _, s := range res.Shots {
		if !p.MinSizeOK(s) {
			t.Errorf("shot %v violates min size", s)
		}
	}
}

func TestFractureLShape(t *testing.T) {
	p := mustProblem(t, poly(0, 0, 150, 0, 150, 60, 60, 60, 60, 150, 0, 150))
	res := Fracture(p, Options{})
	if !res.Stats.Feasible() {
		t.Errorf("L not feasible: %+v", res.Stats)
	}
	if res.ShotCount() > 5 {
		t.Errorf("L used %d shots", res.ShotCount())
	}
}

func TestFractureDiagonal(t *testing.T) {
	// a square with one 45° chamfered corner exercises the corner
	// rounding path
	p := mustProblem(t, poly(0, 0, 100, 0, 100, 65, 65, 100, 0, 100))
	res := Fracture(p, Options{})
	if res.Stats.Fail() > 3 {
		t.Errorf("chamfered square: %d failing pixels", res.Stats.Fail())
	}
	if res.ShotCount() > 8 {
		t.Errorf("chamfered square used %d shots", res.ShotCount())
	}
}

func TestCornerTypeString(t *testing.T) {
	for ct, want := range map[CornerType]string{BL: "BL", BR: "BR", TL: "TL", TR: "TR", CornerType(9): "?"} {
		if got := ct.String(); got != want {
			t.Errorf("%d.String() = %q", ct, got)
		}
	}
}

func TestDiagonalPairs(t *testing.T) {
	if !diagonal(BL, TR) || !diagonal(TR, BL) || !diagonal(BR, TL) || !diagonal(TL, BR) {
		t.Error("diagonal pairs not recognized")
	}
	if diagonal(BL, BR) || diagonal(BL, TL) || diagonal(BL, BL) {
		t.Error("non-diagonal pair accepted")
	}
}

func TestCornerTypeFacing(t *testing.T) {
	cases := []struct {
		nx, ny float64
		want   CornerType
	}{
		{-1, -1, BL}, {1, -1, BR}, {-1, 1, TL}, {1, 1, TR},
	}
	for _, c := range cases {
		if got := cornerTypeFacing(c.nx, c.ny); got != c.want {
			t.Errorf("facing(%v,%v) = %v, want %v", c.nx, c.ny, got, c.want)
		}
	}
}

func TestExtractCornersSquare(t *testing.T) {
	p := mustProblem(t, poly(0, 0, 40, 0, 40, 40, 0, 40))
	pts, simplified, lth := extractCorners(p, Options{}.withDefaults(p))
	if len(simplified) != 4 {
		t.Errorf("square simplified to %d vertices", len(simplified))
	}
	if lth <= 0 {
		t.Errorf("Lth = %v", lth)
	}
	// 4 segments × 2 endpoints
	if len(pts) != 8 {
		t.Fatalf("corner points = %d, want 8", len(pts))
	}
	// each type appears exactly twice (one per adjacent edge pair)
	count := map[CornerType]int{}
	for _, c := range pts {
		count[c.Type]++
	}
	for _, ct := range []CornerType{BL, BR, TL, TR} {
		if count[ct] != 2 {
			t.Errorf("type %v count = %d, want 2", ct, count[ct])
		}
	}
}

func TestExtractCornersTypesOnSquare(t *testing.T) {
	p := mustProblem(t, poly(0, 0, 40, 0, 40, 40, 0, 40))
	pts, _, _ := extractCorners(p, Options{}.withDefaults(p))
	// every BL-typed point must be near the square's bottom-left corner
	// region etc.
	for _, c := range pts {
		var corner geom.Point
		switch c.Type {
		case BL:
			corner = geom.Pt(0, 0)
		case BR:
			corner = geom.Pt(40, 0)
		case TL:
			corner = geom.Pt(0, 40)
		case TR:
			corner = geom.Pt(40, 40)
		}
		if c.P.Dist(corner) > 15 {
			t.Errorf("%v point %v too far from square corner %v", c.Type, c.P, corner)
		}
	}
}

func TestClusterCorners(t *testing.T) {
	lth := 10.0
	pts := []CornerPoint{
		{P: geom.Pt(0, 0), Type: BL},
		{P: geom.Pt(3, 0), Type: BL},  // clusters with the first
		{P: geom.Pt(50, 0), Type: BL}, // far away
		{P: geom.Pt(3, 0), Type: TR},  // same spot, different type
	}
	out := clusterCorners(pts, lth)
	if len(out) != 3 {
		t.Fatalf("clustered to %d points, want 3: %v", len(out), out)
	}
	// the merged BL pair sits at the centroid
	found := false
	for _, c := range out {
		if c.Type == BL && math.Abs(c.P.X-1.5) < 1e-9 {
			found = true
		}
	}
	if !found {
		t.Error("centroid of clustered pair missing")
	}
}

func TestClusterCornersChain(t *testing.T) {
	// chain 0-8-16 with Lth=10: the closest pair (any adjacent, 8 apart)
	// merges to a centroid at 4 (or 12); the remaining pair is 12 apart
	// and stays separate — arcs collapse to ~Lth spacing, not to a point
	pts := []CornerPoint{
		{P: geom.Pt(0, 0), Type: TR},
		{P: geom.Pt(8, 0), Type: TR},
		{P: geom.Pt(16, 0), Type: TR},
	}
	out := clusterCorners(pts, 10)
	if len(out) != 2 {
		t.Fatalf("chain clustered to %d, want 2: %v", len(out), out)
	}
	// a dense run collapses to one point
	dense := []CornerPoint{
		{P: geom.Pt(0, 0), Type: TR},
		{P: geom.Pt(2, 0), Type: TR},
		{P: geom.Pt(4, 0), Type: TR},
	}
	if out := clusterCorners(dense, 10); len(out) != 1 {
		t.Fatalf("dense run clustered to %d, want 1", len(out))
	}
}

func TestTestShotDiagonal(t *testing.T) {
	p := mustProblem(t, poly(0, 0, 40, 0, 40, 40, 0, 40))
	lth := 10.0
	// valid BL-TR pair
	s, ok := testShot(p, CornerPoint{P: geom.Pt(0, 0), Type: BL}, CornerPoint{P: geom.Pt(30, 30), Type: TR}, lth)
	if !ok || s != (geom.Rect{X0: 0, Y0: 0, X1: 30, Y1: 30}) {
		t.Errorf("BL-TR shot = %v ok=%v", s, ok)
	}
	// argument order must not matter
	s2, ok2 := testShot(p, CornerPoint{P: geom.Pt(30, 30), Type: TR}, CornerPoint{P: geom.Pt(0, 0), Type: BL}, lth)
	if !ok2 || s2 != s {
		t.Error("testShot not symmetric")
	}
	// inverted diagonal fails (TR below/left of BL)
	if _, ok := testShot(p, CornerPoint{P: geom.Pt(30, 30), Type: BL}, CornerPoint{P: geom.Pt(0, 0), Type: TR}, lth); ok {
		t.Error("inverted diagonal accepted")
	}
	// same type fails
	if _, ok := testShot(p, CornerPoint{P: geom.Pt(0, 0), Type: BL}, CornerPoint{P: geom.Pt(30, 30), Type: BL}, lth); ok {
		t.Error("same type accepted")
	}
	// sub-Lmin shot fails
	if _, ok := testShot(p, CornerPoint{P: geom.Pt(0, 0), Type: BL}, CornerPoint{P: geom.Pt(5, 30), Type: TR}, lth); ok {
		t.Error("narrow diagonal accepted")
	}
}

func TestTestShotAdjacent(t *testing.T) {
	p := mustProblem(t, poly(0, 0, 40, 0, 40, 40, 0, 40))
	lth := 10.0
	// bottom edge pair: min-height shot sitting on the pair
	s, ok := testShot(p, CornerPoint{P: geom.Pt(0, 0), Type: BL}, CornerPoint{P: geom.Pt(30, 0), Type: BR}, lth)
	if !ok {
		t.Fatal("bottom pair rejected")
	}
	if s.H() != p.Params.Lmin || s.W() != 30 {
		t.Errorf("bottom pair shot = %v", s)
	}
	// left edge pair: min-width
	s, ok = testShot(p, CornerPoint{P: geom.Pt(0, 0), Type: BL}, CornerPoint{P: geom.Pt(0, 30), Type: TL}, lth)
	if !ok || s.W() != p.Params.Lmin {
		t.Errorf("left pair shot = %v ok=%v", s, ok)
	}
	// misaligned beyond lth fails
	if _, ok := testShot(p, CornerPoint{P: geom.Pt(0, 0), Type: BL}, CornerPoint{P: geom.Pt(30, 20), Type: BR}, lth); ok {
		t.Error("misaligned bottom pair accepted")
	}
}

func TestShotFromClassExtension(t *testing.T) {
	// top-edge-only class must extend down to the bottom boundary
	// (paper Fig 4)
	p := mustProblem(t, poly(0, 0, 40, 0, 40, 40, 0, 40))
	s := shotFromClass(p, []CornerPoint{
		{P: geom.Pt(0, 40), Type: TL},
		{P: geom.Pt(40, 40), Type: TR},
	})
	if s.Y1 != 40 {
		t.Errorf("top edge moved: %v", s)
	}
	if s.Y0 > 2 {
		t.Errorf("bottom edge not extended to boundary: %v", s)
	}
	// single-corner class extends both ways
	s = shotFromClass(p, []CornerPoint{{P: geom.Pt(0, 0), Type: BL}})
	if s.X1 < 38 || s.Y1 < 38 {
		t.Errorf("single corner not extended: %v", s)
	}
	// full diagonal class is direct
	s = shotFromClass(p, []CornerPoint{
		{P: geom.Pt(0, 0), Type: BL},
		{P: geom.Pt(40, 40), Type: TR},
	})
	if s != (geom.Rect{X0: 0, Y0: 0, X1: 40, Y1: 40}) {
		t.Errorf("diagonal class shot = %v", s)
	}
}

func TestShotFromClassMinSize(t *testing.T) {
	p := mustProblem(t, poly(0, 0, 40, 0, 40, 40, 0, 40))
	// conflicting means that would produce a degenerate shot get
	// clamped to the minimum size
	s := shotFromClass(p, []CornerPoint{
		{P: geom.Pt(20, 20), Type: BL},
		{P: geom.Pt(20, 20), Type: TR},
	})
	if s.W() < p.Params.Lmin-1e-9 || s.H() < p.Params.Lmin-1e-9 {
		t.Errorf("degenerate class shot = %v", s)
	}
}

func TestApproximateFractureSquare(t *testing.T) {
	p := mustProblem(t, poly(0, 0, 40, 0, 40, 40, 0, 40))
	shots, info := approximateFracture(context.Background(), p, Options{}.withDefaults(p))
	if len(shots) == 0 || len(shots) > 4 {
		t.Errorf("initial shots = %d", len(shots))
	}
	if info.Corners == 0 || info.Colors != len(shots) {
		t.Errorf("info = %+v", info)
	}
	if info.Corners > info.CornersRaw {
		t.Error("clustering increased point count")
	}
}

func TestRefineFixesViolations(t *testing.T) {
	// start refinement from a deliberately bad initial solution
	p := mustProblem(t, poly(0, 0, 40, 0, 40, 40, 0, 40))
	bad := []geom.Rect{{X0: 5, Y0: 5, X1: 20, Y1: 20}}
	opt := Options{}.withDefaults(p)
	final, iters := refine(context.Background(), p, bad, opt)
	st := p.Evaluate(final)
	if iters == 0 {
		t.Error("refine did nothing")
	}
	if st.Fail() > 2 {
		t.Errorf("refinement left %d violations (%d iters, %d shots)", st.Fail(), iters, len(final))
	}
}

func TestRefineKeepsFeasible(t *testing.T) {
	// already-feasible input returns immediately
	p := mustProblem(t, poly(0, 0, 40, 0, 40, 40, 0, 40))
	good := []geom.Rect{{X0: -0.5, Y0: -0.5, X1: 40.5, Y1: 40.5}}
	final, iters := refine(context.Background(), p, good, Options{}.withDefaults(p))
	if iters != 0 || len(final) != 1 {
		t.Errorf("refine touched a feasible solution: %d iters, %d shots", iters, len(final))
	}
}

func TestSkipRefinementOption(t *testing.T) {
	p := mustProblem(t, poly(0, 0, 40, 0, 40, 40, 0, 40))
	res := Fracture(p, Options{SkipRefinement: true})
	if res.Info.RefineIterations != 0 {
		t.Error("refinement ran despite SkipRefinement")
	}
	if len(res.Shots) != len(res.Initial) {
		t.Error("SkipRefinement result differs from initial")
	}
}

func TestMergeShots(t *testing.T) {
	p := mustProblem(t, poly(0, 0, 40, 0, 40, 40, 0, 40))
	opt := Options{}.withDefaults(p)
	// two x-aligned stacked shots inside the target merge into one
	e := cover.NewEval(p, []geom.Rect{
		{X0: 0, Y0: 0, X1: 40, Y1: 22},
		{X0: 0.5, Y0: 20, X1: 39.5, Y1: 40},
	})
	mergeShots(e, opt)
	if len(e.Shots) != 1 {
		t.Fatalf("aligned shots not merged: %v", e.Shots)
	}
	if got := e.Shots[0]; math.Abs(got.Y0-0) > 1e-9 || math.Abs(got.Y1-40) > 1e-9 {
		t.Errorf("merged shot = %v", got)
	}
}

func TestMergeShotsContainment(t *testing.T) {
	p := mustProblem(t, poly(0, 0, 40, 0, 40, 40, 0, 40))
	opt := Options{}.withDefaults(p)
	e := cover.NewEval(p, []geom.Rect{
		{X0: 0, Y0: 0, X1: 40, Y1: 40},
		{X0: 10, Y0: 10, X1: 30, Y1: 30}, // redundant inner shot
	})
	mergeShots(e, opt)
	if len(e.Shots) != 1 {
		t.Fatalf("contained shot not removed: %v", e.Shots)
	}
	if e.Shots[0] != (geom.Rect{X0: 0, Y0: 0, X1: 40, Y1: 40}) {
		t.Errorf("wrong survivor: %v", e.Shots[0])
	}
}

func TestMergeShotsRespectsInteriorFraction(t *testing.T) {
	// U-shape: merging the two arm shots horizontally would cover the
	// notch between the arms — must not merge (Fig 5, right case)
	u := poly(0, 0, 60, 0, 60, 60, 40, 60, 40, 20, 20, 20, 20, 60, 0, 60)
	p := mustProblem(t, u)
	opt := Options{}.withDefaults(p)
	e := cover.NewEval(p, []geom.Rect{
		{X0: 0, Y0: 30, X1: 20, Y1: 55},  // left arm
		{X0: 40, Y0: 30, X1: 60, Y1: 55}, // right arm, y-aligned
	})
	before := len(e.Shots)
	mergeShots(e, opt)
	if len(e.Shots) != before {
		t.Errorf("merge across notch happened: %v", e.Shots)
	}
}

func TestAddShotTargetsLargestBlob(t *testing.T) {
	p := mustProblem(t, poly(0, 0, 40, 0, 40, 40, 0, 40))
	// cover only the left strip: the uncovered right region is one blob
	e := cover.NewEval(p, []geom.Rect{{X0: -0.5, Y0: -0.5, X1: 12, Y1: 40.5}})
	n := len(e.Shots)
	addShot(e)
	if len(e.Shots) != n+1 {
		t.Fatal("no shot added")
	}
	added := e.Shots[len(e.Shots)-1]
	if added.X0 < 8 {
		t.Errorf("added shot %v not over the uncovered right region", added)
	}
	if !p.MinSizeOK(added) {
		t.Errorf("added shot %v violates min size", added)
	}
	// adding must reduce the failing-on count
	stBefore := p.Evaluate(e.Shots[:n])
	stAfter := e.Stats()
	if stAfter.FailOn >= stBefore.FailOn {
		t.Errorf("addShot did not reduce FailOn: %d -> %d", stBefore.FailOn, stAfter.FailOn)
	}
}

func TestRemoveShotPicksWorstOffender(t *testing.T) {
	p := mustProblem(t, poly(0, 0, 40, 0, 40, 40, 0, 40))
	// one good shot and one far outside the target
	good := geom.Rect{X0: -0.5, Y0: -0.5, X1: 40.5, Y1: 40.5}
	stray := geom.Rect{X0: 60, Y0: 60, X1: 80, Y1: 80}
	e := cover.NewEval(p, []geom.Rect{good, stray})
	removeShot(e)
	if len(e.Shots) != 1 {
		t.Fatal("no shot removed")
	}
	if e.Shots[0] != good {
		t.Errorf("removed the wrong shot, left %v", e.Shots[0])
	}
}

func TestGreedyEdgeAdjustImproves(t *testing.T) {
	p := mustProblem(t, poly(0, 0, 40, 0, 40, 40, 0, 40))
	// slightly undersized shot: edges should move outward
	e := cover.NewEval(p, []geom.Rect{{X0: 3, Y0: 3, X1: 37, Y1: 37}})
	before := e.Stats().Cost
	opt := Options{}.withDefaults(p)
	if !greedyEdgeAdjust(e, opt, nil) {
		t.Fatal("no edge moved")
	}
	after := e.Stats().Cost
	if after >= before {
		t.Errorf("cost did not decrease: %v -> %v", before, after)
	}
}

func TestStalled(t *testing.T) {
	if stalled([]float64{5, 4, 3}, 5) {
		t.Error("short history reported stalled")
	}
	if !stalled([]float64{3, 3, 3, 3, 3, 3}, 5) {
		t.Error("flat history not stalled")
	}
	if stalled([]float64{5, 4, 3, 2, 1, 0.5}, 5) {
		t.Error("improving history reported stalled")
	}
}

func TestFractureAblationsStillWork(t *testing.T) {
	target := poly(0, 0, 60, 0, 60, 25, 25, 25, 25, 60, 0, 60)
	for _, opt := range []Options{
		{DisableRDP: true},
		{DisableClustering: true},
		{DisableMerge: true},
		{DisableBias: true},
		{DisableBlocking: true},
	} {
		p := mustProblem(t, target)
		res := Fracture(p, opt)
		if res.Stats.Fail() > 10 {
			t.Errorf("ablation %+v left %d failures", opt, res.Stats.Fail())
		}
	}
}

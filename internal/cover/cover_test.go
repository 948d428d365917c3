package cover

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"maskfrac/internal/geom"
)

func square(side float64) geom.Polygon {
	return geom.Polygon{geom.Pt(0, 0), geom.Pt(side, 0), geom.Pt(side, side), geom.Pt(0, side)}
}

func mustProblem(t *testing.T, pg geom.Polygon) *Problem {
	t.Helper()
	p, err := NewProblem(pg, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestParamsValidate(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Errorf("default params invalid: %v", err)
	}
	bad := []Params{
		{Sigma: 0, Gamma: 2, Rho: 0.5, Pitch: 1, Lmin: 8},
		{Sigma: 6, Gamma: -1, Rho: 0.5, Pitch: 1, Lmin: 8},
		{Sigma: 6, Gamma: 2, Rho: 0, Pitch: 1, Lmin: 8},
		{Sigma: 6, Gamma: 2, Rho: 1.5, Pitch: 1, Lmin: 8},
		{Sigma: 6, Gamma: 2, Rho: 0.5, Pitch: 0, Lmin: 8},
		{Sigma: 6, Gamma: 2, Rho: 0.5, Pitch: 1, Lmin: 0},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad params %d accepted", i)
		}
	}
}

func TestNewProblemErrors(t *testing.T) {
	if _, err := NewProblem(geom.Polygon{geom.Pt(0, 0)}, DefaultParams()); err == nil {
		t.Error("degenerate target accepted")
	}
	p := DefaultParams()
	p.Rho = 2
	if _, err := NewProblem(square(40), p); err == nil {
		t.Error("bad params accepted")
	}
}

func TestClassification(t *testing.T) {
	p := mustProblem(t, square(40))
	g := p.Grid
	// deep inside → On
	i, j := g.PixelOf(geom.Pt(20, 20))
	if p.Class[g.Index(i, j)] != On {
		t.Error("center not On")
	}
	// far outside → Off
	i, j = g.PixelOf(geom.Pt(-10, 20))
	if p.Class[g.Index(i, j)] != Off {
		t.Error("outside not Off")
	}
	// within gamma of the boundary → Band
	i, j = g.PixelOf(geom.Pt(0.5, 20))
	if p.Class[g.Index(i, j)] != Band {
		t.Error("near-boundary pixel not Band")
	}
	i, j = g.PixelOf(geom.Pt(-1.2, 20))
	if p.Class[g.Index(i, j)] != Band {
		t.Error("near-boundary outside pixel not Band")
	}
	if p.OnCount() == 0 || p.OffCount() == 0 {
		t.Error("empty Pon or Poff")
	}
	// counts add up
	band := 0
	for _, c := range p.Class {
		if c == Band {
			band++
		}
	}
	if p.OnCount()+p.OffCount()+band != g.Len() {
		t.Error("class counts do not partition the grid")
	}
}

func TestClassificationBandWidth(t *testing.T) {
	p := mustProblem(t, square(40))
	g := p.Grid
	// every On pixel is inside and at distance > gamma from boundary;
	// every Off pixel outside at distance > gamma
	for k, c := range p.Class {
		i, j := g.Coords(k)
		pt := g.Center(i, j)
		d := p.Target.BoundaryDist(pt)
		inside := p.Target.Contains(pt)
		switch c {
		case On:
			if !inside || d <= p.Params.Gamma-1e-9 {
				t.Fatalf("On pixel %v inside=%v d=%v", pt, inside, d)
			}
		case Off:
			if inside || d <= p.Params.Gamma-1e-9 {
				t.Fatalf("Off pixel %v inside=%v d=%v", pt, inside, d)
			}
		case Band:
			if d > p.Params.Gamma+1e-9 {
				t.Fatalf("Band pixel %v has d=%v > gamma", pt, d)
			}
		}
	}
}

func TestMinSizeOK(t *testing.T) {
	p := mustProblem(t, square(40))
	if !p.MinSizeOK(geom.Rect{X0: 0, Y0: 0, X1: 8, Y1: 8}) {
		t.Error("exact Lmin rejected")
	}
	if p.MinSizeOK(geom.Rect{X0: 0, Y0: 0, X1: 7.9, Y1: 8}) {
		t.Error("sub-Lmin accepted")
	}
}

func TestLegalize(t *testing.T) {
	p := mustProblem(t, square(40))
	lmin := p.Params.Lmin
	// a 2×20 box grows to Lmin wide about its center; its height holds
	got := p.Legalize(geom.Rect{X0: 10, Y0: 0, X1: 12, Y1: 20})
	if want := (geom.Rect{X0: 11 - lmin/2, Y0: 0, X1: 11 + lmin/2, Y1: 20}); got != want {
		t.Errorf("Legalize = %v, want %v", got, want)
	}
	if !p.MinSizeOK(got) {
		t.Errorf("Legalize result %v below Lmin", got)
	}
	legal := geom.Rect{X0: 0, Y0: 0, X1: 20, Y1: 20}
	if got := p.Legalize(legal); got != legal {
		t.Errorf("Legalize changed a legal shot: %v", got)
	}
}

func TestInteriorFraction(t *testing.T) {
	p := mustProblem(t, square(40))
	if f := p.InteriorFraction(geom.Rect{X0: 10, Y0: 10, X1: 30, Y1: 30}); f != 1 {
		t.Errorf("inner shot fraction = %v", f)
	}
	if f := p.InteriorFraction(geom.Rect{X0: -30, Y0: -30, X1: -10, Y1: -10}); f != 0 {
		t.Errorf("outer shot fraction = %v", f)
	}
	// half-overlapping shot
	f := p.InteriorFraction(geom.Rect{X0: -10, Y0: 10, X1: 10, Y1: 30})
	if math.Abs(f-0.5) > 0.1 {
		t.Errorf("half shot fraction = %v", f)
	}
	// sub-pixel shot falls back to center test
	if f := p.InteriorFraction(geom.Rect{X0: 20, Y0: 20, X1: 20.3, Y1: 20.3}); f != 1 {
		t.Errorf("tiny inner shot fraction = %v", f)
	}
}

func TestEvaluatePerfectCover(t *testing.T) {
	// A shot slightly overhanging the 40nm square target compensates
	// corner rounding: edges stay within the band, inner corner pixels
	// get enough dose, outer pixels stay below rho.
	p := mustProblem(t, square(40))
	st := p.Evaluate([]geom.Rect{{X0: -0.5, Y0: -0.5, X1: 40.5, Y1: 40.5}})
	if !st.Feasible() {
		t.Errorf("overhanging shot infeasible: %+v", st)
	}
}

func TestEvaluateCornerRounding(t *testing.T) {
	// The exact-target shot is NOT feasible: e-beam corner rounding
	// under-doses On pixels within the rounding depth of a sharp 90°
	// corner (the effect the paper's fracturing must compensate).
	p := mustProblem(t, square(40))
	st := p.Evaluate([]geom.Rect{{X0: 0, Y0: 0, X1: 40, Y1: 40}})
	if st.FailOn == 0 {
		t.Error("expected corner-rounding On violations for the exact shot")
	}
	if st.FailOn > 8 {
		t.Errorf("too many corner violations: %d", st.FailOn)
	}
	if st.FailOff != 0 {
		t.Errorf("exact shot should not overdose Off pixels: %+v", st)
	}
}

func TestEvaluateEmpty(t *testing.T) {
	p := mustProblem(t, square(40))
	st := p.Evaluate(nil)
	if st.FailOn != p.OnCount() {
		t.Errorf("no shots: FailOn = %d, want %d", st.FailOn, p.OnCount())
	}
	if st.FailOff != 0 {
		t.Errorf("no shots: FailOff = %d", st.FailOff)
	}
	wantCost := 0.5 * float64(p.OnCount())
	if math.Abs(st.Cost-wantCost) > 1e-9 {
		t.Errorf("no shots: cost = %v, want %v", st.Cost, wantCost)
	}
}

func TestEvaluateOversizedShot(t *testing.T) {
	// a shot grossly larger than the target must fail Poff pixels
	p := mustProblem(t, square(40))
	st := p.Evaluate([]geom.Rect{{X0: -15, Y0: -15, X1: 55, Y1: 55}})
	if st.FailOff == 0 {
		t.Error("oversized shot has no off violations")
	}
	if st.FailOn != 0 {
		t.Error("oversized shot fails on pixels")
	}
}

func TestEvalIncrementalConsistency(t *testing.T) {
	p := mustProblem(t, square(40))
	e := NewEval(p, nil)
	s1 := geom.Rect{X0: 0, Y0: 0, X1: 25, Y1: 40}
	s2 := geom.Rect{X0: 20, Y0: 0, X1: 40, Y1: 40}
	e.Add(s1)
	e.Add(s2)
	want := p.Evaluate([]geom.Rect{s1, s2})
	got := e.Stats()
	if math.Abs(got.Cost-want.Cost) > 1e-9 || got.FailOn != want.FailOn || got.FailOff != want.FailOff {
		t.Errorf("incremental %+v vs scratch %+v", got, want)
	}
	// mutate: move s2, remove s1
	e.SetShot(1, geom.Rect{X0: 18, Y0: 0, X1: 40, Y1: 40})
	e.Remove(0)
	want = p.Evaluate(e.Shots)
	got = e.Stats()
	if math.Abs(got.Cost-want.Cost) > 1e-9 || got.Fail() != want.Fail() {
		t.Errorf("after mutation: %+v vs %+v", got, want)
	}
}

func TestDeltaCostMatchesFullRecompute(t *testing.T) {
	p := mustProblem(t, square(40))
	shots := []geom.Rect{
		{X0: 0, Y0: 0, X1: 22, Y1: 40},
		{X0: 20, Y0: 0, X1: 40, Y1: 38},
	}
	e := NewEval(p, shots)
	base := e.Stats().Cost
	moves := []geom.Rect{
		{X0: 0, Y0: 0, X1: 23, Y1: 40},  // right edge +1
		{X0: 1, Y0: 0, X1: 22, Y1: 40},  // left edge +1
		{X0: 0, Y0: -1, X1: 22, Y1: 40}, // bottom edge -1
		{X0: 0, Y0: 0, X1: 22, Y1: 39},  // top edge -1
		{X0: 2, Y0: 3, X1: 30, Y1: 35},  // general move
		{X0: 0, Y0: 0, X1: 22, Y1: 40},  // no-op
	}
	for _, mv := range moves {
		delta := e.DeltaCost(0, mv)
		after := p.Evaluate([]geom.Rect{mv, shots[1]})
		want := after.Cost - base
		if math.Abs(delta-want) > 1e-6 {
			t.Errorf("move %v: delta = %v, want %v", mv, delta, want)
		}
	}
}

func TestDeltaCostQuick(t *testing.T) {
	p := mustProblem(t, square(30))
	base := geom.Rect{X0: 0, Y0: 0, X1: 30, Y1: 30}
	e := NewEval(p, []geom.Rect{base})
	baseCost := e.Stats().Cost
	f := func(dx0, dy0, dx1, dy1 int8) bool {
		repl := geom.Rect{
			X0: base.X0 + float64(dx0%6),
			Y0: base.Y0 + float64(dy0%6),
			X1: base.X1 + float64(dx1%6),
			Y1: base.Y1 + float64(dy1%6),
		}
		if repl.Empty() {
			return true
		}
		delta := e.DeltaCost(0, repl)
		want := p.Evaluate([]geom.Rect{repl}).Cost - baseCost
		return math.Abs(delta-want) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestFailingBitmaps(t *testing.T) {
	p := mustProblem(t, square(40))
	// cover only the left half: right-half On pixels fail
	e := NewEval(p, []geom.Rect{{X0: 0, Y0: 0, X1: 20, Y1: 40}})
	failOn, failOff := e.FailingBitmaps()
	st := e.Stats()
	if failOn.Count() != st.FailOn || failOff.Count() != st.FailOff {
		t.Errorf("bitmap counts %d/%d vs stats %d/%d",
			failOn.Count(), failOff.Count(), st.FailOn, st.FailOff)
	}
	if failOn.Count() == 0 {
		t.Error("expected failing on pixels")
	}
	g := p.Grid
	i, j := g.PixelOf(geom.Pt(35, 20))
	if !failOn.Get(i, j) {
		t.Error("uncovered interior pixel not failing")
	}
	i, j = g.PixelOf(geom.Pt(10, 20))
	if failOn.Get(i, j) {
		t.Error("covered interior pixel failing")
	}
}

func TestSnapshotShots(t *testing.T) {
	p := mustProblem(t, square(40))
	e := NewEval(p, []geom.Rect{{X0: 0, Y0: 0, X1: 40, Y1: 40}})
	snap := e.SnapshotShots()
	e.SetShot(0, geom.Rect{X0: 5, Y0: 5, X1: 35, Y1: 35})
	if snap[0] != (geom.Rect{X0: 0, Y0: 0, X1: 40, Y1: 40}) {
		t.Error("snapshot aliases live shots")
	}
}

func TestCostNonNegativeQuick(t *testing.T) {
	p := mustProblem(t, square(30))
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 25; trial++ {
		n := rng.Intn(4)
		shots := make([]geom.Rect, 0, n)
		for i := 0; i < n; i++ {
			x0 := rng.Float64()*40 - 5
			y0 := rng.Float64()*40 - 5
			shots = append(shots, geom.Rect{X0: x0, Y0: y0, X1: x0 + 8 + rng.Float64()*20, Y1: y0 + 8 + rng.Float64()*20})
		}
		st := p.Evaluate(shots)
		if st.Cost < 0 || st.FailOn < 0 || st.FailOff < 0 {
			t.Fatalf("negative stats: %+v", st)
		}
		if st.Fail() == 0 && st.Cost != 0 {
			t.Fatalf("zero failures but non-zero cost: %+v", st)
		}
	}
}

func TestNewMultiProblem(t *testing.T) {
	shapes := []geom.Polygon{
		square(40),
		square(30).Translate(geom.Pt(80, 0)),
	}
	p, err := NewMultiProblem(shapes, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Targets) != 2 {
		t.Fatalf("targets = %d", len(p.Targets))
	}
	g := p.Grid
	// interiors of both shapes are On
	for _, pt := range []geom.Point{geom.Pt(20, 20), geom.Pt(95, 15)} {
		i, j := g.PixelOf(pt)
		if p.Class[g.Index(i, j)] != On {
			t.Errorf("pixel at %v not On", pt)
		}
	}
	// the gap between them is Off
	i, j := g.PixelOf(geom.Pt(60, 15))
	if p.Class[g.Index(i, j)] != Off {
		t.Error("gap pixel not Off")
	}
	if !p.ContainsPoint(geom.Pt(95, 15)) || p.ContainsPoint(geom.Pt(60, 15)) {
		t.Error("ContainsPoint wrong")
	}
	b := p.TargetBounds()
	if b.X0 != 0 || b.X1 != 110 {
		t.Errorf("TargetBounds = %v", b)
	}
	// both shapes must be covered for feasibility
	st := p.Evaluate([]geom.Rect{{X0: -0.5, Y0: -0.5, X1: 40.5, Y1: 40.5}})
	if st.FailOn == 0 {
		t.Error("uncovered second shape not failing")
	}
	st = p.Evaluate([]geom.Rect{
		{X0: -0.5, Y0: -0.5, X1: 40.5, Y1: 40.5},
		{X0: 79.5, Y0: -0.5, X1: 110.5, Y1: 30.5},
	})
	if !st.Feasible() {
		t.Errorf("both shapes covered but infeasible: %+v", st)
	}
}

func TestNewMultiProblemErrors(t *testing.T) {
	if _, err := NewMultiProblem(nil, DefaultParams()); err == nil {
		t.Error("empty target list accepted")
	}
	if _, err := NewMultiProblem([]geom.Polygon{square(40), {geom.Pt(0, 0)}}, DefaultParams()); err == nil {
		t.Error("degenerate second shape accepted")
	}
}

func TestBackscatterParams(t *testing.T) {
	params := DefaultParams()
	params.Beta = 30
	params.Eta = 0.5
	p, err := NewProblem(square(40), params)
	if err != nil {
		t.Fatal(err)
	}
	if p.Model.Components() != 2 {
		t.Errorf("components = %d", p.Model.Components())
	}
	// the larger support widens the sampling margin
	if p.Grid.W <= 90 {
		t.Errorf("grid width %d does not reflect the backscatter support", p.Grid.W)
	}
	bad := params
	bad.Beta = 0
	if err := bad.Validate(); err == nil {
		t.Error("eta without beta accepted")
	}
	bad = params
	bad.Eta = -1
	if err := bad.Validate(); err == nil {
		t.Error("negative eta accepted")
	}
}

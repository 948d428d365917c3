package fixup

import (
	"testing"

	"maskfrac/internal/cover"
	"maskfrac/internal/geom"
)

func square(t *testing.T, side float64) *cover.Problem {
	t.Helper()
	pg := geom.Polygon{geom.Pt(0, 0), geom.Pt(side, 0), geom.Pt(side, side), geom.Pt(0, side)}
	p, err := cover.NewProblem(pg, cover.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestGreedyCoverCoversSquare(t *testing.T) {
	p := square(t, 60)
	e := cover.NewEval(p, nil)
	cands := []geom.Rect{
		{X0: -0.5, Y0: -0.5, X1: 60.5, Y1: 60.5}, // the right answer
		{X0: 0, Y0: 0, X1: 20, Y1: 20},           // partial
	}
	GreedyCover(p, e, cands, 4, 10)
	if st := e.Stats(); st.FailOn != 0 {
		t.Errorf("square not covered: %+v", st)
	}
	if len(e.Shots) != 1 {
		t.Errorf("greedy picked %d shots, want 1", len(e.Shots))
	}
}

func TestGreedyCoverRespectsCap(t *testing.T) {
	p := square(t, 60)
	e := cover.NewEval(p, nil)
	cands := []geom.Rect{{X0: 0, Y0: 0, X1: 12, Y1: 12}}
	GreedyCover(p, e, cands, 4, 1)
	if len(e.Shots) > 1 {
		t.Errorf("cap ignored: %d shots", len(e.Shots))
	}
}

func TestGreedyCoverStopsWhenNothingHelps(t *testing.T) {
	p := square(t, 60)
	e := cover.NewEval(p, nil)
	// only a far-outside candidate: fixes nothing
	GreedyCover(p, e, []geom.Rect{{X0: 200, Y0: 200, X1: 260, Y1: 260}}, 4, 10)
	if len(e.Shots) != 0 {
		t.Errorf("useless candidate added: %v", e.Shots)
	}
}

func TestScoreCandidate(t *testing.T) {
	p := square(t, 60)
	e := cover.NewEval(p, nil)
	failOn, _ := e.FailingBitmaps()
	good := ScoreCandidate(p, e, failOn, geom.Rect{X0: -0.5, Y0: -0.5, X1: 60.5, Y1: 60.5}, 4)
	if good <= 0 {
		t.Errorf("covering candidate scored %v", good)
	}
	// grossly oversized shot breaks many off pixels
	bad := ScoreCandidate(p, e, failOn, geom.Rect{X0: -40, Y0: -40, X1: 100, Y1: 100}, 4)
	if bad >= good {
		t.Errorf("oversized shot (%v) scored no worse than exact (%v)", bad, good)
	}
}

func TestPatchCompletesCover(t *testing.T) {
	p := square(t, 60)
	// left half covered; Patch must finish the right half
	e := cover.NewEval(p, []geom.Rect{{X0: -0.5, Y0: -0.5, X1: 30, Y1: 60.5}})
	Patch(p, e, 20)
	if st := e.Stats(); st.FailOn != 0 {
		t.Errorf("patch left FailOn=%d", st.FailOn)
	}
}

func TestPatchRespectsMinSize(t *testing.T) {
	p := square(t, 60)
	e := cover.NewEval(p, []geom.Rect{{X0: -0.5, Y0: -0.5, X1: 57, Y1: 60.5}})
	Patch(p, e, 20)
	for _, s := range e.Shots {
		if !p.MinSizeOK(s) {
			t.Errorf("patch shot %v below Lmin", s)
		}
	}
}

func TestEdgeAdjustImprovesOverdose(t *testing.T) {
	p := square(t, 60)
	// a shot sticking out on the right: overdose outside
	e := cover.NewEval(p, []geom.Rect{{X0: -0.5, Y0: -0.5, X1: 70, Y1: 60.5}})
	before := e.Stats()
	EdgeAdjust(p, e, 60)
	after := e.Stats()
	if after.Fail() >= before.Fail() {
		t.Errorf("EdgeAdjust did not help: %d -> %d", before.Fail(), after.Fail())
	}
	if after.Fail() != 0 {
		t.Errorf("simple overhang not fully repaired: %+v", after)
	}
}

func TestEdgeAdjustKeepsBest(t *testing.T) {
	// already optimal: EdgeAdjust must not make it worse
	p := square(t, 60)
	e := cover.NewEval(p, []geom.Rect{{X0: -0.5, Y0: -0.5, X1: 60.5, Y1: 60.5}})
	EdgeAdjust(p, e, 30)
	if st := e.Stats(); !st.Feasible() {
		t.Errorf("EdgeAdjust broke a feasible solution: %+v", st)
	}
}

func TestEdgeAdjustKeepsLPairs(t *testing.T) {
	// two targets 10 nm apart, written by a flush L pair: the vertical
	// arm's bottom edge sits on the horizontal arm, so its dose floods
	// the gap and retreating that edge by one pitch cuts cost — but
	// detaches the arm, which one L flash cannot write
	targets := []geom.Polygon{
		{geom.Pt(0, 0), geom.Pt(60, 0), geom.Pt(60, 20), geom.Pt(0, 20)},
		{geom.Pt(0, 30), geom.Pt(20, 30), geom.Pt(20, 60), geom.Pt(0, 60)},
	}
	p, err := cover.NewMultiProblem(targets, cover.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	arm := geom.Rect{X0: 0, Y0: 20, X1: 20, Y1: 60}
	e := cover.NewEval(p, []geom.Rect{{X0: 0, Y0: 0, X1: 60, Y1: 20}, arm})
	defer e.Close()
	e.Pair(0, 1)
	detach := arm
	detach.Y0 += p.Params.Pitch
	if cover.UnionIsLShot(e.Shots[0], detach) {
		t.Fatalf("setup: %v still forms an L with %v", detach, e.Shots[0])
	}
	if d := e.DeltaCost(1, detach); d >= 0 {
		t.Fatalf("setup: detaching move does not cut cost (delta %v)", d)
	}
	EdgeAdjust(p, e, 30)
	if e.PairCount() != 1 {
		t.Fatalf("EdgeAdjust left %d pairs, want 1", e.PairCount())
	}
	for _, pr := range e.Pairs() {
		if a, b := e.Shots[pr[0]], e.Shots[pr[1]]; !cover.UnionIsLShot(a, b) {
			t.Errorf("pair %v is no longer an L: %v, %v", pr, a, b)
		}
	}
}

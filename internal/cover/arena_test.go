package cover

import (
	"testing"

	"maskfrac/internal/geom"
)

// TestEvalCloseArenaReuse checks the arena lifecycle: buffers returned
// by Eval.Close are handed to the next evaluator of the same problem,
// visible both as pointer identity and in the process-wide counters.
// The reused live bitmap must come back cleared and rebuilt.
func TestEvalCloseArenaReuse(t *testing.T) {
	p := mustProblem(t, square(40))
	shots := []geom.Rect{{X0: 0, Y0: 0, X1: 40, Y1: 40}}

	e1 := NewEval(p, shots)
	dose1, live1 := &e1.Dose.V[0], &e1.live[0]
	for k := range e1.live {
		e1.live[k] = ^uint64(0) // stale bits a reset must not keep
	}
	e1.Close()

	before := ArenaCounters()
	e2 := NewEval(p, shots)
	after := ArenaCounters()
	if &e2.Dose.V[0] != dose1 {
		t.Error("second evaluator did not reuse the closed dose buffer")
	}
	if &e2.live[0] != live1 {
		t.Error("second evaluator did not reuse the closed live bitmap")
	}
	checkBitmaps(t, e2, "reused arena")
	if after.Hits <= before.Hits {
		t.Errorf("arena hits did not increase: %d -> %d", before.Hits, after.Hits)
	}
	if after.BytesReused <= before.BytesReused {
		t.Errorf("arena bytes reused did not increase: %d -> %d", before.BytesReused, after.BytesReused)
	}
	e2.Close()
	e2.Close() // idempotent
}

// TestEvalUseAfterClosePanics pins the fail-loud contract: mutating a
// closed evaluator panics instead of corrupting a successor's buffers.
func TestEvalUseAfterClosePanics(t *testing.T) {
	p := mustProblem(t, square(40))
	e := NewEval(p, []geom.Rect{{X0: 0, Y0: 0, X1: 40, Y1: 40}})
	e.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("Add on a closed evaluator did not panic")
		}
	}()
	e.Add(geom.Rect{X0: 10, Y0: 10, X1: 30, Y1: 30})
}

// TestSubproblemSharesModel checks that the problems sampled from one
// instance share its read-only proximity model and its arena, and that
// scoring a solution after a solve reuses the solve's buffers.
func TestSubproblemSharesModel(t *testing.T) {
	shapes := []geom.Polygon{square(30), squareAt(100, 0, 20)}
	in, err := NewInstance(shapes, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	p, sub := in.Whole(), in.Sample([]int{1})
	if sub.Model != p.Model {
		t.Error("subproblem rebuilt the proximity model")
	}
	if p.arena != &in.arena || sub.arena != &in.arena {
		t.Error("problems sampled from one instance do not share its arena")
	}
	shots := []geom.Rect{{X0: 0, Y0: 0, X1: 30, Y1: 30}, {X0: 100, Y0: 0, X1: 120, Y1: 20}}
	NewEval(p, shots).Close()
	before := ArenaCounters()
	in.EvaluateParts(shots, nil, []Part{{Targets: []int{0, 1}, Shots: 2}})
	if after := ArenaCounters(); after.Hits <= before.Hits {
		t.Errorf("EvaluateParts after a solve added no arena hits: %d -> %d", before.Hits, after.Hits)
	}
}

// squareAt returns an axis-aligned square with lower-left (x, y).
func squareAt(x, y, side float64) geom.Polygon {
	return geom.Polygon{
		geom.Pt(x, y), geom.Pt(x+side, y),
		geom.Pt(x+side, y+side), geom.Pt(x, y+side),
	}
}

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

// TestProblemRecycle checks that recycling detaches the arena (a later
// evaluator draws a fresh one) and leaves the problem usable.
func TestProblemRecycle(t *testing.T) {
	p := mustProblem(t, square(40))
	a1 := p.Arena()
	p.Recycle()
	if p.arena.Load() != nil {
		t.Fatal("Recycle left the arena attached")
	}
	e := NewEval(p, []geom.Rect{{X0: 0, Y0: 0, X1: 40, Y1: 40}})
	if got := e.Stats(); got.Fail() < 0 {
		t.Fatal("unreachable")
	}
	e.Close()
	_ = a1
	p.Recycle()
}

// TestSubproblemSharesModel checks that region subproblems reuse the
// parent's read-only proximity model instead of rebuilding the LUTs.
func TestSubproblemSharesModel(t *testing.T) {
	shapes := []geom.Polygon{square(30), squareAt(100, 0, 20)}
	p, err := NewMultiProblem(shapes, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	sub, err := p.Subproblem([]int{1})
	if err != nil {
		t.Fatal(err)
	}
	if sub.Model != p.Model {
		t.Error("subproblem rebuilt the proximity model")
	}
	if p.arena.Load() != nil && sub.arena.Load() == p.arena.Load() {
		t.Error("subproblem shares the parent's arena")
	}
}

// squareAt returns an axis-aligned square with lower-left (x, y).
func squareAt(x, y, side float64) geom.Polygon {
	return geom.Polygon{
		geom.Pt(x, y), geom.Pt(x+side, y),
		geom.Pt(x+side, y+side), geom.Pt(x, y+side),
	}
}

package maskfrac

import (
	"context"
	"errors"
	"testing"
)

func TestFractureBatch(t *testing.T) {
	targets := []Polygon{
		square(70),
		square(90),
		{{X: 0, Y: 0}, {X: 1, Y: 1}}, // invalid shape
		square(60),
	}
	items := FractureBatch(context.Background(), targets, DefaultParams(), MethodProtoEDA, nil, 2, nil)
	if len(items) != 4 {
		t.Fatalf("items = %d", len(items))
	}
	for i, it := range items {
		if it.Index != i {
			t.Errorf("item %d has index %d", i, it.Index)
		}
	}
	if items[2].Err == nil {
		t.Error("invalid shape produced no error")
	}
	for _, i := range []int{0, 1, 3} {
		if items[i].Err != nil {
			t.Errorf("shape %d failed: %v", i, items[i].Err)
		}
		if items[i].Result.ShotCount() == 0 {
			t.Errorf("shape %d has no shots", i)
		}
	}
	s := Summarize(items)
	if s.Shapes != 4 || s.Errors != 1 {
		t.Errorf("summary = %+v", s)
	}
	if s.Shots == 0 || s.Feasible == 0 {
		t.Errorf("summary totals empty: %+v", s)
	}
}

func TestFractureBatchMatchesSerial(t *testing.T) {
	targets := []Polygon{square(70), square(90)}
	params := DefaultParams()
	items := FractureBatch(context.Background(), targets, params, MethodProtoEDA, nil, 0, nil)
	for i, target := range targets {
		prob, err := NewProblem(target, params)
		if err != nil {
			t.Fatal(err)
		}
		want, err := prob.Fracture(MethodProtoEDA, nil)
		if err != nil {
			t.Fatal(err)
		}
		if items[i].Result.ShotCount() != want.ShotCount() {
			t.Errorf("shape %d: batch %d shots vs serial %d", i, items[i].Result.ShotCount(), want.ShotCount())
		}
	}
}

func TestFractureBatchWorkersExceedShapes(t *testing.T) {
	items := FractureBatch(context.Background(), []Polygon{square(60)}, DefaultParams(), MethodGSC, nil, 32, nil)
	if len(items) != 1 || items[0].Err != nil {
		t.Fatalf("items = %+v", items)
	}
}

func TestFractureBatchCtxCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancel before dispatch: every item must carry ctx.Err()
	targets := []Polygon{square(60), square(70), square(80)}
	items := FractureBatch(ctx, targets, DefaultParams(), MethodProtoEDA, nil, 2, nil)
	if len(items) != 3 {
		t.Fatalf("items = %d", len(items))
	}
	for i, it := range items {
		if it.Index != i {
			t.Errorf("item %d has index %d", i, it.Index)
		}
		if !errors.Is(it.Err, context.Canceled) {
			t.Errorf("item %d: err = %v, want context.Canceled", i, it.Err)
		}
	}
}

func TestFractureBatchCtxCancelMidway(t *testing.T) {
	// cancel after the first shape completes; later shapes must carry
	// ctx.Err() while earlier results stay intact
	ctx, cancel := context.WithCancel(context.Background())
	targets := make([]Polygon, 12)
	for i := range targets {
		targets[i] = square(60 + float64(i))
	}
	// a single worker serializes the batch, so cancelling early leaves
	// most shapes undispatched
	done := make(chan []BatchItem)
	go func() {
		done <- FractureBatch(ctx, targets, DefaultParams(), MethodProtoEDA, nil, 1, nil)
	}()
	cancel()
	items := <-done
	var sawCancel bool
	for i, it := range items {
		if it.Err != nil {
			if !errors.Is(it.Err, context.Canceled) {
				t.Errorf("item %d: err = %v", i, it.Err)
			}
			sawCancel = true
		} else if it.Result == nil {
			t.Errorf("item %d has neither result nor error", i)
		}
	}
	if !sawCancel {
		t.Skip("batch finished before cancellation took effect")
	}
}

func TestFractureBatchErrorPaths(t *testing.T) {
	// a batch mixing valid shapes and a degenerate polygon returns
	// per-item errors in input order without poisoning siblings
	targets := []Polygon{
		square(70),
		{{X: 0, Y: 0}, {X: 5, Y: 5}}, // degenerate: < 3 vertices
		square(90),
	}
	items := FractureBatch(context.Background(), targets, DefaultParams(), MethodProtoEDA, nil, 3, nil)
	if items[1].Err == nil {
		t.Error("degenerate polygon produced no error")
	}
	for _, i := range []int{0, 2} {
		if items[i].Err != nil {
			t.Errorf("sibling %d poisoned: %v", i, items[i].Err)
		}
		if items[i].Index != i || items[i].Result.ShotCount() == 0 {
			t.Errorf("sibling %d: index %d, %v", i, items[i].Index, items[i].Result)
		}
	}

	// an unknown method errors on every item, in input order
	items = FractureBatch(context.Background(), []Polygon{square(60), square(80)}, DefaultParams(), Method("bogus"), nil, 2, nil)
	for i, it := range items {
		if it.Err == nil {
			t.Errorf("item %d: unknown method produced no error", i)
		}
		if it.Index != i {
			t.Errorf("item %d has index %d", i, it.Index)
		}
	}
}

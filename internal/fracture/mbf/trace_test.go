package mbf

import (
	"context"
	"strings"
	"testing"

	"maskfrac/internal/cover"
	"maskfrac/internal/geom"
	"maskfrac/internal/telemetry"
)

// attr returns the value of the span's attribute key, or nil.
func attr(s *telemetry.Span, key string) any {
	for _, a := range s.Attrs() {
		if a.Key == key {
			return a.Value
		}
	}
	return nil
}

// TestFractureCtxSpanTree runs the full method on a small L-shape with
// tracing enabled and checks the recorded phase tree: the coloring
// stage's sub-phases, the refinement span and its per-iteration
// children with solver statistics.
func TestFractureCtxSpanTree(t *testing.T) {
	target := poly(0, 0, 90, 0, 90, 30, 30, 30, 30, 120, 0, 120)
	p, err := cover.NewProblem(target, cover.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	ctx, root := telemetry.WithTrace(context.Background(), "mbf-test")
	res := FractureCtx(ctx, p, Options{})
	root.End()

	if res.ShotCount() == 0 {
		t.Fatal("no shots")
	}
	for _, phase := range []string{
		"mbf.approximate", "mbf.corners", "mbf.cluster", "mbf.graph",
		"mbf.color", "mbf.reconstruct", "mbf.refine",
	} {
		if root.Find(phase) == nil {
			t.Errorf("trace has no %q span", phase)
		}
	}
	refine := root.Find("mbf.refine")
	iters := 0
	for _, c := range refine.Children() {
		if c.Name != "mbf.iter" {
			continue
		}
		iters++
		keys := map[string]bool{}
		for _, a := range c.Attrs() {
			keys[a.Key] = true
		}
		for _, k := range []string{"shots", "fail_on", "fail_off", "evals"} {
			if !keys[k] {
				t.Fatalf("mbf.iter span missing attr %q", k)
			}
		}
	}
	// the loop's final pass is the exit check (no work, no span), so a
	// converged solve reports one more iteration than it has iter spans
	if iters != res.Info.RefineIterations && iters != res.Info.RefineIterations-1 {
		t.Errorf("trace has %d iter spans, result reports %d iterations",
			iters, res.Info.RefineIterations)
	}
	// corners span carries the stage statistics
	if cornersRaw := attr(root.Find("mbf.corners"), "corners_raw"); cornersRaw != res.Info.CornersRaw {
		t.Errorf("corners_raw attr = %v, StageInfo says %d", cornersRaw, res.Info.CornersRaw)
	}

	// cleanup says how many remove-and-repair rounds ran and why it
	// stopped: this solve has few shots, so the last round removed none
	cleanup := root.Find("mbf.cleanup")
	if got := attr(cleanup, "stop"); got != "no_removal" {
		t.Errorf("mbf.cleanup stop = %v, want no_removal", got)
	}
	if rounds, _ := attr(cleanup, "rounds").(int); rounds < 1 {
		t.Errorf("mbf.cleanup rounds = %v, want at least 1", attr(cleanup, "rounds"))
	}

	var sb strings.Builder
	root.WriteTree(&sb)
	if !strings.Contains(sb.String(), "mbf.refine") {
		t.Errorf("tree rendering missing refine phase:\n%s", sb.String())
	}

	// with L-shots the matched pair goes through the repair loop, whose
	// span says why the loop stopped and how many pairs it split
	ctx, root = telemetry.WithTrace(context.Background(), "mbf-l-test")
	res = FractureCtx(ctx, p, Options{LShots: true})
	root.End()
	lshots := root.Find("mbf.lshots")
	if lshots == nil || res.Info.LMatched == 0 {
		t.Fatalf("no L pair matched on the L-shape (span %v)", lshots)
	}
	switch stop := attr(lshots, "stop"); stop {
	case "held", "cap", "stuck":
		if len(res.Pairs) == 0 {
			t.Errorf("mbf.lshots stop = %v but no pair kept", stop)
		}
	case "fallback":
		if len(res.Pairs) != 0 {
			t.Errorf("mbf.lshots fell back but kept %d pairs", len(res.Pairs))
		}
	default:
		t.Errorf("mbf.lshots stop = %v, want held, cap, stuck or fallback", stop)
	}
	split, ok := attr(lshots, "split").(int)
	if !ok || split < 0 || split > res.Info.LMatched {
		t.Errorf("mbf.lshots split = %v with %d pairs matched", attr(lshots, "split"), res.Info.LMatched)
	}
	if attr(lshots, "stop") != "fallback" && len(res.Pairs) != res.Info.LMatched-split {
		t.Errorf("%d pairs kept of %d matched with %d split", len(res.Pairs), res.Info.LMatched, split)
	}
}

// TestCleanupSkipsAboveMaxShots drives the cleanup's shot-count skip:
// a bar tiled by cleanupMaxShots+1 abutting squares, none redundant and
// merging disabled, reaches remove-and-repair with too many shots and
// comes back untouched, its span saying it was skipped after no round.
func TestCleanupSkipsAboveMaxShots(t *testing.T) {
	const side, n = 20.0, cleanupMaxShots + 1
	target := poly(0, 0, n*side, 0, n*side, side, 0, side)
	p, err := cover.NewProblem(target, cover.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	shots := make([]geom.Rect, n)
	for i := range shots {
		shots[i] = geom.Rect{X0: float64(i) * side, Y0: 0, X1: float64(i+1) * side, Y1: side}
	}
	ctx, root := telemetry.WithTrace(context.Background(), "cleanup-skip")
	out := postCleanup(ctx, p, shots, Options{DisableMerge: true})
	root.End()
	if len(out) != n {
		t.Fatalf("cleanup returned %d shots, want the %d it was given", len(out), n)
	}
	for i := range out {
		if out[i] != shots[i] {
			t.Fatalf("shot %d = %v, want %v untouched", i, out[i], shots[i])
		}
	}
	cleanup := root.Find("mbf.cleanup")
	if got := attr(cleanup, "stop"); got != "skipped" {
		t.Errorf("mbf.cleanup stop = %v, want skipped", got)
	}
	if got := attr(cleanup, "rounds"); got != 0 {
		t.Errorf("mbf.cleanup rounds = %v, want 0", got)
	}
}

// TestFractureWithoutTraceRecordsNothing pins the zero-cost path: no
// trace on the context means no spans anywhere.
func TestFractureWithoutTraceRecordsNothing(t *testing.T) {
	target := poly(0, 0, 60, 0, 60, 60, 0, 60)
	p, err := cover.NewProblem(target, cover.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	res := FractureCtx(context.Background(), p, Options{})
	if res.ShotCount() == 0 {
		t.Fatal("no shots")
	}
	if sp := telemetry.ActiveSpan(context.Background()); sp != nil {
		t.Error("background context has an active span")
	}
}

package maskfrac

import (
	"context"
	"math/rand"
	"testing"

	"maskfrac/internal/cover"
	"maskfrac/internal/fracture/mbf"
	"maskfrac/internal/shapegen"
	"maskfrac/internal/telemetry"
)

// TestIntegrationILTClip runs the full paper pipeline end to end on one
// ILT clip and cross-checks every invariant the method promises.
func TestIntegrationILTClip(t *testing.T) {
	clip := ILTSuite()[0]
	prob, err := NewProblem(clip.Target, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	res, err := prob.Fracture(MethodMBF, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible() {
		t.Errorf("ILT-1 not feasible: on=%d off=%d", res.FailOn, res.FailOff)
	}
	lb, ub := prob.Bounds()
	if res.ShotCount() > ub {
		t.Errorf("method (%d shots) worse than the conventional upper bound (%d)", res.ShotCount(), ub)
	}
	if lb < 1 {
		t.Errorf("lower bound %d", lb)
	}
	// every shot satisfies the tool constraint
	for _, s := range res.Shots {
		if s.W() < DefaultParams().Lmin-1e-9 || s.H() < DefaultParams().Lmin-1e-9 {
			t.Errorf("shot %v below minimum size", s)
		}
	}
	// re-evaluating the returned shots reproduces the reported stats
	failOn, failOff, _ := prob.Evaluate(res.Shots)
	if failOn != res.FailOn || failOff != res.FailOff {
		t.Errorf("stats mismatch: reported %d/%d, re-evaluated %d/%d",
			res.FailOn, res.FailOff, failOn, failOff)
	}
}

// TestIntegrationMethodsBeatNothing checks that on a certified-optimal
// generated shape no method reports fewer shots than the certificate
// while claiming feasibility.
func TestIntegrationCertificateRespected(t *testing.T) {
	if testing.Short() {
		t.Skip("generated shapes in -short mode")
	}
	params := DefaultParams()
	sh := shapegen.RGB(17, 5, params)
	if sh.Target == nil {
		t.Fatal("generation failed")
	}
	prob, err := NewProblem(sh.Target, params)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []Method{MethodGSC, MethodMP, MethodProtoEDA, MethodMBF} {
		res, err := prob.Fracture(m, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.Feasible() && res.ShotCount() < sh.Known {
			t.Errorf("%s: feasible with %d shots below certified optimum %d",
				m, res.ShotCount(), sh.Known)
		}
	}
}

// TestIntegrationRandomBlobs fuzzes the paper's method over random
// blob shapes: it must always return legal shots and few violations.
func TestIntegrationRandomBlobs(t *testing.T) {
	if testing.Short() {
		t.Skip("fuzz in -short mode")
	}
	params := cover.DefaultParams()
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 6; trial++ {
		sh := shapegen.ILTShape(rng.Int63(), 2+rng.Intn(3))
		p, err := cover.NewProblem(sh.Target, params)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		res := mbf.Fracture(p, mbf.Options{Nmax: 1200})
		for _, s := range res.Shots {
			if !p.MinSizeOK(s) {
				t.Errorf("trial %d: illegal shot %v", trial, s)
			}
		}
		total := p.OnCount() + p.OffCount()
		if res.Stats.Fail() > total/100 {
			t.Errorf("trial %d: %d of %d pixels failing", trial, res.Stats.Fail(), total)
		}
	}
}

// TestIntegrationWriteReadRoundTrip exercises the full benchgen →
// maskio → fracture path the CLIs use.
func TestIntegrationSuiteStability(t *testing.T) {
	// the suite must be identical across calls (benchmarks depend on it)
	a := ILTSuite()
	b := ILTSuite()
	for i := range a {
		if len(a[i].Target) != len(b[i].Target) {
			t.Fatalf("suite not deterministic at %s", a[i].Name)
		}
		for j := range a[i].Target {
			if a[i].Target[j] != b[i].Target[j] {
				t.Fatalf("suite vertex drift at %s[%d]", a[i].Name, j)
			}
		}
	}
}

// TestRefineStopReasons checks why refine stops on two Table 2 clips:
// ILT-1 ends feasible, so its loop converges; ILT-2 keeps one failing
// pixel, last improves at iteration 195 and stops on patience 1000
// iterations later, well short of the 3000-iteration cap.
func TestRefineStopReasons(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two MBF solves; skipped under -short")
	}
	ilt := ILTSuite()
	for _, c := range []struct {
		clip  int
		stop  string
		iters int64
	}{{0, "converged", 0}, {1, "patience", 1196}} {
		prob, err := NewProblem(ilt[c.clip].Target, DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		ctx, root := telemetry.WithTrace(context.Background(), "test")
		res, err := prob.FractureCtx(ctx, MethodMBF, nil)
		root.End()
		if err != nil {
			t.Fatal(err)
		}
		attrs := map[string]any{}
		for _, a := range root.Find("mbf.refine").Attrs() {
			attrs[a.Key] = a.Value
		}
		name := ilt[c.clip].Name
		if attrs["stop"] != c.stop {
			t.Errorf("%s: refine stop = %v, want %s", name, attrs["stop"], c.stop)
		}
		if iters := attrs["iterations"]; iters != res.Stage.Iterations {
			t.Errorf("%s: span iterations %v, StageInfo %d", name, iters, res.Stage.Iterations)
		}
		if c.iters > 0 && int64(res.Stage.Iterations) != c.iters {
			t.Errorf("%s: refine ran %d iterations, want %d", name, res.Stage.Iterations, c.iters)
		}
	}
}

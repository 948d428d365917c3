package maskfrac

import (
	"context"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"maskfrac/internal/telemetry"
)

func square(side float64) Polygon {
	return Polygon{{X: 0, Y: 0}, {X: side, Y: 0}, {X: side, Y: side}, {X: 0, Y: side}}
}

func TestNewProblemErrors(t *testing.T) {
	if _, err := NewProblem(Polygon{{X: 0, Y: 0}}, DefaultParams()); err == nil {
		t.Error("degenerate target accepted")
	}
	p := DefaultParams()
	p.Sigma = -1
	if _, err := NewProblem(square(50), p); err == nil {
		t.Error("bad params accepted")
	}
}

func TestProblemAccessors(t *testing.T) {
	prob, err := NewProblem(square(50), DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(prob.Target()) != 4 {
		t.Error("Target lost vertices")
	}
	if prob.Params().Sigma != 6.25 {
		t.Error("Params lost values")
	}
	on, off := prob.PixelCounts()
	if on == 0 || off == 0 {
		t.Error("empty pixel classes")
	}
	if lth := prob.Lth(); lth < 10 || lth > 20 {
		t.Errorf("Lth = %v", lth)
	}
}

func TestFractureAllMethods(t *testing.T) {
	prob, err := NewProblem(square(80), DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range Methods() {
		res, err := prob.Fracture(m, nil)
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		if res.Method != m {
			t.Errorf("%s: result method %s", m, res.Method)
		}
		if res.ShotCount() == 0 {
			t.Errorf("%s: no shots", m)
		}
		if res.Runtime <= 0 {
			t.Errorf("%s: no runtime", m)
		}
		// a plain square must be nearly clean for every method
		// (partition cannot fix corner rounding, allow a few pixels)
		if res.FailingPixels() > 8 {
			t.Errorf("%s: %d failing pixels on a square", m, res.FailingPixels())
		}
	}
}

func TestFractureUnknownMethod(t *testing.T) {
	prob, _ := NewProblem(square(50), DefaultParams())
	if _, err := prob.Fracture(Method("bogus"), nil); err == nil {
		t.Error("unknown method accepted")
	}
}

func TestFractureMBFStageInfo(t *testing.T) {
	prob, _ := NewProblem(square(80), DefaultParams())
	res, err := prob.Fracture(MethodMBF, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stage == nil {
		t.Fatal("no stage info for MBF")
	}
	if res.Stage.Corners == 0 || res.Stage.Colors == 0 || res.Stage.Lth <= 0 {
		t.Errorf("stage info empty: %+v", res.Stage)
	}
	gsc, err := prob.Fracture(MethodGSC, nil)
	if err != nil {
		t.Fatal(err)
	}
	if gsc.Stage != nil {
		t.Error("stage info present for non-MBF method")
	}
}

func TestFractureOptions(t *testing.T) {
	prob, _ := NewProblem(square(80), DefaultParams())
	res, err := prob.Fracture(MethodMBF, &Options{SkipRefinement: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stage.Iterations != 0 {
		t.Error("refinement ran despite SkipRefinement")
	}
	for _, order := range []string{"sequential", "welsh-powell", "smallest-last"} {
		if _, err := prob.Fracture(MethodMBF, &Options{ColoringOrder: order, SkipRefinement: true}); err != nil {
			t.Errorf("order %s: %v", order, err)
		}
	}
	if _, err := prob.Fracture(MethodMBF, &Options{ColoringOrder: "bogus"}); err == nil {
		t.Error("bad coloring order accepted")
	}
}

func TestEvaluateAndDose(t *testing.T) {
	prob, _ := NewProblem(square(80), DefaultParams())
	full := Shot{X0: -0.5, Y0: -0.5, X1: 80.5, Y1: 80.5}
	failOn, failOff, cost := prob.Evaluate([]Shot{full})
	if failOn != 0 || failOff != 0 || cost != 0 {
		t.Errorf("full shot: %d %d %v", failOn, failOff, cost)
	}
	center := prob.DoseAt([]Shot{full}, Point{X: 40, Y: 40})
	if center < 0.99 {
		t.Errorf("center dose = %v", center)
	}
	outside := prob.DoseAt([]Shot{full}, Point{X: 200, Y: 200})
	if outside != 0 {
		t.Errorf("far dose = %v", outside)
	}
}

func TestBoundsSane(t *testing.T) {
	prob, _ := NewProblem(square(80), DefaultParams())
	if ub := prob.Bounds(); ub != 1 {
		t.Errorf("square UB = %d, want 1", ub)
	}
}

func TestSuites(t *testing.T) {
	ilt := ILTSuite()
	if len(ilt) != 10 {
		t.Fatalf("ILT suite size %d", len(ilt))
	}
	for _, b := range ilt {
		if b.Optimal != 0 {
			t.Errorf("%s: ILT shape has optimal", b.Name)
		}
		if len(b.Target) < 8 {
			t.Errorf("%s: trivial shape", b.Name)
		}
	}
	if testing.Short() {
		t.Skip("generated suite in -short mode")
	}
	gen := GeneratedSuite(DefaultParams())
	if len(gen) != 10 {
		t.Fatalf("generated suite size %d", len(gen))
	}
	for _, b := range gen {
		if b.Optimal <= 0 {
			t.Errorf("%s: missing optimal", b.Name)
		}
	}
}

func TestRunSuiteAndFormat(t *testing.T) {
	params := DefaultParams()
	benchmarks := []Benchmark{
		{Name: "sq", Target: square(80), Optimal: 1},
	}
	methods := []Method{MethodProtoEDA, MethodGSC}
	rows, err := RunSuite(benchmarks, params, methods)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	table := FormatTable(rows, methods, true)
	for _, frag := range []string{"sq", "proto-eda", "gsc", "Sum norm."} {
		if !strings.Contains(table, frag) {
			t.Errorf("table missing %q:\n%s", frag, table)
		}
	}
	table2 := FormatTable(rows, methods, false)
	if f := strings.Fields(table2); len(f) < 2 || f[0] != "Clip-ID" || f[1] != "UB" {
		t.Errorf("table 2 header does not open with Clip-ID UB:\n%s", table2)
	}
	if got := TotalShots(rows, MethodGSC); got == 0 {
		t.Error("TotalShots = 0")
	}
	if rts := MethodRuntimes(rows); len(rts) != 2 {
		t.Errorf("runtimes = %v", rts)
	}
	norm := NormalizedShotSum(rows, MethodGSC, true)
	if norm <= 0 {
		t.Errorf("normalized sum = %v", norm)
	}
}

func TestNormalizedShotSumSkipsMissingRef(t *testing.T) {
	rows := []Row{
		{Shape: "a", Method: MethodMBF, Shots: 4, Optimal: 2},
		{Shape: "b", Method: MethodMBF, Shots: 9, Optimal: 0}, // skipped
	}
	if got := NormalizedShotSum(rows, MethodMBF, true); got != 2 {
		t.Errorf("normalized = %v, want 2", got)
	}
}

func TestMultiProblemFacade(t *testing.T) {
	cluster := SRAFCluster(3, 4)
	if len(cluster) != 5 {
		t.Fatalf("cluster size = %d", len(cluster))
	}
	prob, err := NewMultiProblem(cluster, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(prob.Targets()) != 5 {
		t.Errorf("targets = %d", len(prob.Targets()))
	}
	res, err := prob.Fracture(MethodProtoEDA, nil)
	if err != nil {
		t.Fatal(err)
	}
	// one shot per shape is the natural solution scale
	if res.ShotCount() < 5 || res.ShotCount() > 10 {
		t.Errorf("SRAF cluster used %d shots", res.ShotCount())
	}
	if res.FailingPixels() > 10 {
		t.Errorf("SRAF cluster left %d failures", res.FailingPixels())
	}
	if _, err := NewMultiProblem(nil, DefaultParams()); err == nil {
		t.Error("empty cluster accepted")
	}
}

func TestBackscatterFacade(t *testing.T) {
	params := DefaultParams()
	params.Beta = 25
	params.Eta = 0.3
	prob, err := NewProblem(square(80), params)
	if err != nil {
		t.Fatal(err)
	}
	res, err := prob.Fracture(MethodProtoEDA, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.ShotCount() == 0 {
		t.Error("no shots under backscatter model")
	}
	// dose far outside is non-zero under backscatter
	full := Shot{X0: 0, Y0: 0, X1: 80, Y1: 80}
	if d := prob.DoseAt([]Shot{full}, Point{X: -40, Y: 40}); d <= 0 {
		t.Errorf("backscatter tail dose = %v", d)
	}
}

// fourSRAFClusters returns four SRAF groups 600 nm apart, one region
// each. Their bounds are not integers, so each group's own grid sits
// off the union grid's lattice.
func fourSRAFClusters() []Polygon {
	var targets []Polygon
	offsets := []Point{{X: 0, Y: 0}, {X: 600, Y: 0}, {X: 0, Y: 600}, {X: 600, Y: 600}}
	for i, off := range offsets {
		for _, p := range SRAFCluster(int64(i+1), 1) {
			targets = append(targets, p.Translate(off))
		}
	}
	return targets
}

// TestFractureMultiRegionDeterminism is the facade-level determinism
// TestNewProblemSamplesNothing checks that preparing a problem samples
// no grid: a 2000 nm square's union grid holds 4.2 M pixels, several
// MB of bitmap and classes.
func TestNewProblemSamplesNothing(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := NewProblem(square(2000), DefaultParams())
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Errorf("NewProblem allocated %d KB, want under 1 MB", alloc>>10)
	}
}

// TestOneShapeRegionSpan checks that one shape is solved as the one
// region of its instance: the trace holds one region span, whose sample
// child counts the pixels PixelCounts reports.
func TestOneShapeRegionSpan(t *testing.T) {
	prob, err := NewProblem(square(60), DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	ctx, root := telemetry.WithTrace(context.Background(), "test")
	if _, err := prob.FractureCtx(ctx, MethodProtoEDA, nil); err != nil {
		t.Fatal(err)
	}
	root.End()
	var regions []*telemetry.Span
	for _, c := range root.Find("solve").Children() {
		if c.Name == "region" {
			regions = append(regions, c)
		}
	}
	if len(regions) != 1 {
		t.Fatalf("%d region spans, want 1", len(regions))
	}
	sample := regions[0].Find("sample")
	if sample == nil {
		t.Fatal("region span has no sample child")
	}
	got := map[string]any{}
	for _, a := range sample.Attrs() {
		got[a.Key] = a.Value
	}
	on, off := prob.PixelCounts()
	if got["pixels_on"] != on || got["pixels_off"] != off {
		t.Errorf("sample span pixels on/off %v/%v, PixelCounts %d/%d", got["pixels_on"], got["pixels_off"], on, off)
	}
}

// guard: a four-cluster instance solved with 1 and 4 workers produces
// byte-identical shot lists and identical evaluation results, because
// the engine stitches per-region solutions in region index order
// regardless of goroutine completion order.
func TestFractureMultiRegionDeterminism(t *testing.T) {
	prob, err := NewMultiProblem(fourSRAFClusters(), DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	seq, err := prob.Fracture(MethodMBF, &Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := prob.Fracture(MethodMBF, &Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if seq.Regions != 4 || par.Regions != 4 {
		t.Fatalf("regions = %d/%d, want 4", seq.Regions, par.Regions)
	}
	if !reflect.DeepEqual(seq.Shots, par.Shots) {
		t.Fatal("workers=1 and workers=4 shot lists differ")
	}
	if seq.FailOn != par.FailOn || seq.FailOff != par.FailOff || seq.Cost != par.Cost {
		t.Errorf("evaluation differs: on=%d/%d off=%d/%d cost=%v/%v",
			seq.FailOn, par.FailOn, seq.FailOff, par.FailOff, seq.Cost, par.Cost)
	}
	// the aggregated MBF stage info still reports the whole instance
	if seq.Stage == nil || seq.Stage.InitialShots == 0 {
		t.Errorf("stage info lost across regions: %+v", seq.Stage)
	}
}

// TestEvaluateSpanWindows checks the evaluate span's coverage: a
// three-region instance is scored on three windows of the union grid,
// fewer pixels than that grid holds, and one shape on its whole grid.
func TestEvaluateSpanWindows(t *testing.T) {
	span := func(targets []Polygon) (windows, px int) {
		t.Helper()
		prob, err := NewMultiProblem(targets, DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		ctx, root := telemetry.WithTrace(context.Background(), "test")
		if _, err := prob.FractureCtx(ctx, MethodMBF, nil); err != nil {
			t.Fatal(err)
		}
		root.End()
		for _, a := range root.Find("evaluate").Attrs() {
			switch a.Key {
			case "windows":
				windows = a.Value.(int)
			case "px":
				px = a.Value.(int)
			}
		}
		return windows, px
	}
	// the three Ls span 250×250 nm plus the margin; their windows cover
	// a fraction of that
	if w, px := span(threeLs()); w != 3 || px <= 0 || px >= 250*250 {
		t.Errorf("three regions: %d windows of %d px, want 3 windows under 62500 px", w, px)
	}
	if w, px := span([]Polygon{square(60)}); w != 1 || px != 106*106 {
		t.Errorf("one shape: %d windows of %d px, want its whole 106×106 grid", w, px)
	}
}

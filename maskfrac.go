// Package maskfrac is a model-based mask fracturing library: it covers
// mask target shapes with minimal sets of overlapping variable-shaped
// e-beam shots while compensating the e-beam proximity effect, so that
// the printed dose satisfies CD constraints everywhere.
//
// It reproduces "Effective Model-Based Mask Fracturing for Mask Cost
// Reduction" (Kagalwalla & Gupta, DAC 2015): the paper's graph-coloring
// + iterative-refinement method, the GSC / MP / PROTO-EDA baselines it
// benchmarks against, conventional rectilinear partition fracturing,
// benchmark shape generators, shot-count bounds, a mask write cost
// model, and the experiment harness regenerating the paper's tables.
//
// Quick start:
//
//	target := maskfrac.Polygon{{0, 0}, {100, 0}, {100, 100}, {0, 100}}
//	prob, err := maskfrac.NewProblem(target, maskfrac.DefaultParams())
//	res, err := prob.Fracture(maskfrac.MethodMBF, nil)
//	// res.Shots is the e-beam shot list; res.Feasible() reports CD cleanliness.
package maskfrac

import (
	"context"
	"fmt"
	"time"

	"maskfrac/internal/bounds"
	"maskfrac/internal/cover"
	"maskfrac/internal/fracture/engine"
	"maskfrac/internal/fracture/mbf"
	"maskfrac/internal/geom"
	"maskfrac/internal/graphx"
	"maskfrac/internal/shapegen"
	"maskfrac/internal/telemetry"

	// the solver packages register themselves with the engine's method
	// registry in their package init; mbf is imported above for its
	// stage statistics type
	_ "maskfrac/internal/fracture/gsc"
	_ "maskfrac/internal/fracture/lshape"
	_ "maskfrac/internal/fracture/mp"
	_ "maskfrac/internal/fracture/partition"
	_ "maskfrac/internal/fracture/protoeda"
)

// Point is a planar point in nanometers.
type Point = geom.Point

// Shot is an axis-parallel rectangular e-beam shot, in nanometers.
type Shot = geom.Rect

// Polygon is a mask target shape: a simple polygon without a repeated
// closing vertex. ILT shapes are polygons with many short segments.
type Polygon = geom.Polygon

// Params are the fracturing parameters (blur σ, CD tolerance γ, dose
// threshold ρ, pixel size Δp and minimum shot size Lmin).
type Params = cover.Params

// DefaultParams returns the parameter set of the paper's experiments:
// σ = 6.25 nm, γ = 2 nm, ρ = 0.5, Δp = 1 nm, Lmin = 8 nm.
func DefaultParams() Params { return cover.DefaultParams() }

// Method selects a fracturing heuristic.
type Method string

const (
	// MethodMBF is the paper's method: graph-coloring-based approximate
	// fracturing followed by iterative shot refinement.
	MethodMBF Method = "mbf"
	// MethodMBFL is MethodMBF plus an L-shot matching pass: after
	// refinement, compatible rectangle pairs merge into single L-shaped
	// exposures via maximum matching, each pair pricing as one flash.
	// The pairs are reported in Result.LPairs; the pass never increases
	// the CD-violation count relative to MethodMBF's refined solution.
	MethodMBFL Method = "mbf-l"
	// MethodGSC is the greedy set cover baseline.
	MethodGSC Method = "gsc"
	// MethodMP is the matching pursuit baseline.
	MethodMP Method = "mp"
	// MethodProtoEDA is the commercial-prototype substitute baseline:
	// coarse rectilinear partition plus model-based cleanup.
	MethodProtoEDA Method = "proto-eda"
	// MethodPartition is conventional non-model-based fracturing: a
	// minimum rectangle partition of the rasterized target with no
	// overlap and no proximity compensation.
	MethodPartition Method = "partition"
	// MethodLShape is L-shape fracturing (the paper's reference [20]):
	// a minimum rectangle partition whose pieces pair into single-flash
	// L-shots with MethodMBFL's compatibility rule and matching. Shots
	// is the partition and LPairs the L-shots, so FlashCount counts
	// each L once. No proximity compensation.
	MethodLShape Method = "lshape"
)

// Methods lists all registered fracturing methods, sorted by name. New
// heuristics appear here by registering with the engine's solver
// registry in their package init — the facade has no method switch.
func Methods() []Method {
	names := engine.Names()
	out := make([]Method, len(names))
	for i, n := range names {
		out[i] = Method(n)
	}
	return out
}

// Options tune a fracturing run. The zero value (or a nil pointer)
// selects the paper's settings for every method.
type Options struct {
	// MaxIterations bounds the refinement loop of MethodMBF and the
	// shot caps of the baselines. 0 selects each method's default.
	MaxIterations int
	// ColoringOrder selects the greedy coloring order for MethodMBF:
	// "sequential" (paper default), "welsh-powell" or "smallest-last".
	ColoringOrder string
	// SkipRefinement stops MethodMBF after the coloring stage.
	SkipRefinement bool
	// Workers caps the goroutines of one run: the independent regions
	// of a multi-target instance solved concurrently, and the helpers
	// that fan out inside one solve (MBF's edge-move scoring and
	// cleanup trials); 0 selects GOMAXPROCS and 1 runs sequentially.
	// Inside a FractureBatch run, batch-, region- and solve-level
	// concurrency share the batch's bounded pool instead. Workers never
	// changes the solution: parallel and sequential runs return
	// byte-identical shot lists, so it is excluded from the shape-cache
	// key.
	Workers int
}

// coloringOrder maps the option string to the graph coloring order.
func (o *Options) coloringOrder() (graphx.Order, error) {
	if o == nil || o.ColoringOrder == "" || o.ColoringOrder == "sequential" {
		return graphx.Sequential, nil
	}
	switch o.ColoringOrder {
	case "welsh-powell":
		return graphx.WelshPowell, nil
	case "smallest-last":
		return graphx.SmallestLast, nil
	}
	return graphx.Sequential, fmt.Errorf("maskfrac: unknown coloring order %q", o.ColoringOrder)
}

// Problem is a prepared fracturing instance: the validated target
// shapes, to be sampled at the pixel pitch with every pixel classified
// as interior (Pon), exterior (Poff) or boundary band (don't-care). The
// union grid covers the targets' bounding box plus the proximity kernel
// support; it is sampled only if Evaluate, PixelCounts or Bounds asks
// for it. A fracturing run samples each independent region on its own
// grid and scores the result on windows of the union grid.
type Problem struct {
	in *cover.Instance
}

// NewProblem validates a target shape and prepares it for fracturing.
// It samples nothing.
func NewProblem(target Polygon, params Params) (*Problem, error) {
	return NewMultiProblem([]Polygon{target}, params)
}

// Target returns the problem's target polygon.
func (pr *Problem) Target() Polygon { return pr.in.Targets[0] }

// Params returns the problem's parameters.
func (pr *Problem) Params() Params { return pr.in.Params }

// PixelCounts returns |Pon| and |Poff| of the sampled instance.
func (pr *Problem) PixelCounts() (on, off int) {
	p := pr.in.Whole()
	return p.OnCount(), p.OffCount()
}

// Result is the outcome of a fracturing run.
type Result struct {
	Method Method
	Shots  []Shot
	// LPairs lists L-shot pairs of Shots as {i, j} index pairs with
	// i < j: each pair is two rectangles written as one L-shaped flash
	// sharing one dose (MethodMBFL, MethodLShape). Nil for rectangle-only
	// methods.
	LPairs   [][2]int
	FailOn   int           // failing interior pixels (dose below ρ)
	FailOff  int           // failing exterior pixels (dose at/above ρ)
	Cost     float64       // Σ|Itot−ρ| over failing pixels (paper Eq. 5)
	Regions  int           // independent regions the engine solved (1 for a single shape)
	Runtime  time.Duration // wall time of the solver, excluding scoring
	EvalTime time.Duration // wall time of the Evaluate scoring pass

	// Stage holds coloring-stage statistics for MethodMBF runs, nil
	// otherwise.
	Stage *StageInfo
}

// StageInfo mirrors the approximate-fracturing statistics of the
// paper's method (used to reproduce Figs 1 and 3).
type StageInfo struct {
	VerticesIn   int     // target polygon vertices
	VerticesRDP  int     // vertices after boundary approximation
	CornersRaw   int     // corner points before clustering
	Corners      int     // corner points after clustering
	GraphEdges   int     // compatibility graph edges
	Colors       int     // colors used on the inverse graph
	Lth          float64 // longest writable 45° segment
	InitialShots int     // shots after the coloring stage
	Iterations   int     // refinement iterations run

	// L-shot matching pass statistics (zero unless MethodMBFL).
	LCandidates int // L-compatible shot pairs found
	LMatched    int // pairs selected by maximum matching
	LPairs      int // pairs kept after repair (== flashes saved)
}

// ShotCount returns the number of rectangle entries in Shots. Each
// L-shot pair counts as two entries here; see FlashCount for the
// number of e-beam flashes the mask writer fires.
func (r *Result) ShotCount() int { return len(r.Shots) }

// FlashCount returns the number of e-beam flashes the solution writes
// in: every L-shot pair is one flash, every unpaired rectangle is one.
// Equal to ShotCount for rectangle-only methods.
func (r *Result) FlashCount() int { return len(r.Shots) - len(r.LPairs) }

// FailingPixels returns the total number of CD-violating pixels.
func (r *Result) FailingPixels() int { return r.FailOn + r.FailOff }

// Feasible reports whether the solution satisfies every constraint.
func (r *Result) Feasible() bool { return r.FailingPixels() == 0 }

// Fracture runs the selected method on the problem. opt may be nil for
// the paper's defaults.
func (pr *Problem) Fracture(m Method, opt *Options) (*Result, error) {
	return pr.FractureCtx(context.Background(), m, opt)
}

// FractureCtx is Fracture with telemetry plumbed through the context:
// when ctx carries a trace (telemetry.WithTrace), the solver and
// scoring pass record spans — the engine records its plan, per-region
// sample and solve, and stitch phases, and MethodMBF additionally
// records its corner-extraction, coloring and per-refinement-iteration
// phases. Without a trace the instrumentation costs one context lookup.
//
// Every instance runs through the decompose–solve–stitch engine:
// targets farther apart than the proximity interaction range are solved
// as independent regions, concurrently up to Options.Workers, and the
// merged result is byte-identical to the sequential run. FailOn,
// FailOff and Cost are those of the union grid, computed on windows of
// it around the regions.
func (pr *Problem) FractureCtx(ctx context.Context, m Method, opt *Options) (*Result, error) {
	start := time.Now()
	res := &Result{Method: m}
	order, err := opt.coloringOrder()
	if err != nil {
		return nil, err
	}
	cfg := engine.Config{
		Method:  string(m),
		Options: engine.Options{Order: order},
	}
	if opt != nil {
		cfg.Options.MaxIterations = opt.MaxIterations
		cfg.Options.SkipRefinement = opt.SkipRefinement
		cfg.Workers = opt.Workers
	}
	solveCtx, solveSpan := telemetry.StartSpan(ctx, "solve")
	solveSpan.Set("method", string(m))
	run, err := engine.Solve(solveCtx, pr.in, cfg)
	if err != nil {
		solveSpan.End()
		return nil, fmt.Errorf("maskfrac: %w", err)
	}
	res.Shots = run.Shots
	res.LPairs = run.Pairs
	res.Regions = len(run.Regions)
	res.Stage = foldStages(run)
	res.Runtime = time.Since(start)
	solveSpan.Set("shots", res.ShotCount())
	solveSpan.Set("regions", res.Regions)
	solveSpan.End()
	evalStart := time.Now()
	_, evalSpan := telemetry.StartSpan(ctx, "evaluate")
	parts := make([]cover.Part, len(run.Regions))
	for i, reg := range run.Regions {
		parts[i] = cover.Part{Targets: reg.Targets, Shots: reg.Shots}
	}
	st, cov := pr.in.EvaluateParts(res.Shots, res.LPairs, parts)
	res.EvalTime = time.Since(evalStart)
	res.FailOn = st.FailOn
	res.FailOff = st.FailOff
	res.Cost = st.Cost
	evalSpan.Set("fail_on", st.FailOn)
	evalSpan.Set("fail_off", st.FailOff)
	evalSpan.Set("windows", cov.Windows)
	evalSpan.Set("px", cov.Pixels)
	evalSpan.End()
	return res, nil
}

// foldStages folds the per-region MBF stage statistics of an engine run
// into one StageInfo; nil when no region solver reported any. Counts
// are summed across regions, Lth is shared, and Iterations reports the
// deepest region.
func foldStages(run *engine.Result) *StageInfo {
	var agg *StageInfo
	for _, reg := range run.Regions {
		info, ok := reg.Stage.(*mbf.StageInfo)
		if !ok || info == nil {
			continue
		}
		if agg == nil {
			agg = &StageInfo{Lth: info.Lth}
		}
		agg.VerticesIn += info.VerticesIn
		agg.VerticesRDP += info.VerticesRDP
		agg.CornersRaw += info.CornersRaw
		agg.Corners += info.Corners
		agg.GraphEdges += info.GraphEdges
		agg.Colors += info.Colors
		agg.InitialShots += info.InitialShots
		agg.Iterations = max(agg.Iterations, info.RefineIterations)
		agg.LCandidates += info.LCandidates
		agg.LMatched += info.LMatched
		agg.LPairs += info.LPairs
	}
	return agg
}

// Evaluate scores an arbitrary shot list against the problem's
// constraints.
func (pr *Problem) Evaluate(shots []Shot) (failOn, failOff int, cost float64) {
	st := pr.in.Whole().Evaluate(shots)
	return st.FailOn, st.FailOff, st.Cost
}

// DoseAt returns the total blurred dose the shot list delivers at a
// point.
func (pr *Problem) DoseAt(shots []Shot, at Point) float64 {
	total := 0.0
	for _, s := range shots {
		total += pr.in.Model.ShotIntensity(s, at)
	}
	return total
}

// Bounds returns the upper shot-count bound of the target: the
// rectangle count of a conventional partition (the Table 2 UB
// substitution; see DESIGN.md).
func (pr *Problem) Bounds() (upper int) {
	return bounds.Upper(pr.in.Whole())
}

// Lth returns the longest 45° segment writable by a single shot corner
// under the problem's proximity model and CD tolerance (paper Fig 2).
func (pr *Problem) Lth() float64 {
	return pr.in.Model.Lth(pr.in.Params.Rho, pr.in.Params.Gamma)
}

// NewMultiProblem prepares a group of disjoint target shapes —
// typically a main feature plus its sub-resolution assist features
// (SRAFs) — as one fracturing instance. The shapes share the dose
// budget and are fractured together, as on a real mask where assist
// features sit within the proximity range of the feature they assist.
// It validates and clones the shapes and samples nothing: each region
// is sampled when it is solved.
func NewMultiProblem(targets []Polygon, params Params) (*Problem, error) {
	in, err := cover.NewInstance(targets, params)
	if err != nil {
		return nil, err
	}
	return &Problem{in: in}, nil
}

// Targets returns all target shapes of the instance.
func (pr *Problem) Targets() []Polygon { return pr.in.Targets }

// SRAFCluster returns a generated benchmark instance of a main feature
// plus n assist bars (main shape first).
func SRAFCluster(seed int64, bars int) []Polygon {
	return shapegen.SRAFCluster(seed, bars)
}

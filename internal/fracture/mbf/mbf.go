// Package mbf implements the paper's model-based mask fracturing method
// (Kagalwalla & Gupta, DAC 2015): graph-coloring-based approximate
// fracturing (§3) followed by iterative shot refinement (§4).
//
// Pipeline:
//
//  1. Approximate the target boundary with Ramer–Douglas–Peucker (tolerance γ).
//  2. Extract typed shot corner points from the approximate boundary,
//     exploiting e-beam corner rounding for diagonal segments (Lth).
//  3. Cluster nearby same-type corner points.
//  4. Build the corner compatibility graph; every clique is a candidate
//     shot. Solve minimum clique partition by greedy coloring of the
//     inverse graph.
//  5. Reconstruct one shot per color class, extending under-constrained
//     shots to the opposite target boundary (Fig 4).
//  6. Iteratively refine: greedy shot edge adjustment with 2σ blocking,
//     bias-all-shots, shot addition/removal and shot merging until all
//     CD violations are fixed or the iteration budget is exhausted.
package mbf

import (
	"context"

	"maskfrac/internal/cover"
	"maskfrac/internal/geom"
	"maskfrac/internal/graphx"
	"maskfrac/internal/telemetry"
)

// Options tune the method. The zero value of each field selects the
// paper's setting (applied by Fracture); the Disable* switches exist for
// the ablation benchmarks.
type Options struct {
	Nmax        int          // max refinement iterations (default 3000)
	NH          int          // non-improving iterations before add/remove (default 5)
	Order       graphx.Order // coloring order (default Sequential, as in the paper)
	OverlapFrac float64      // test-shot interior fraction for graph edges (default 0.8)

	// LShots enables the L-shot matching pass after refinement:
	// compatible rectangle pairs merge into single L-shaped exposures
	// via maximum matching (see lshots.go), reducing the flash count at
	// equal CD violations. Exposed as the "mbf-l" registry method.
	LShots bool

	DisableRDP        bool // ablation: skip boundary approximation
	DisableClustering bool // ablation: skip corner clustering
	DisableMerge      bool // ablation: skip shot merging
	DisableBias       bool // ablation: skip bias-all-shots
	DisableBlocking   bool // ablation: skip the 2σ edge blocking
	SkipRefinement    bool // stop after the coloring stage (initial solution)
}

// refinePatience is the number of iterations without a new best state
// after which refine stops, ahead of the Nmax cap (DESIGN.md deviation
// 10). refine returns the best state it has seen, so stopping loses
// only a new best that would have come more than refinePatience
// iterations after the last one; on the 20 Table 2 and 3 clips the
// largest gap between two improvements is 997 iterations.
const refinePatience = 1000

// withDefaults fills unset options with the paper's settings.
func (o Options) withDefaults() Options {
	if o.Nmax == 0 {
		o.Nmax = 3000
	}
	if o.NH == 0 {
		o.NH = 5
	}
	if o.OverlapFrac == 0 {
		o.OverlapFrac = 0.8
	}
	return o
}

// StageInfo reports statistics of the approximate fracturing stage,
// used by the figure-reproduction benchmarks (Fig 1, Fig 3).
type StageInfo struct {
	VerticesIn       int     // target polygon vertices
	VerticesRDP      int     // vertices after boundary approximation
	CornersRaw       int     // corner points before clustering
	Corners          int     // corner points after clustering
	GraphEdges       int     // edges of the compatibility graph G
	Colors           int     // colors used on the inverse graph
	Lth              float64 // the 45° segment bound used
	InitialShots     int     // shots after the coloring stage
	RefineIterations int     // refinement iterations actually run

	// L-shot matching pass statistics (zero unless Options.LShots).
	LCandidates int // L-compatible shot pairs found
	LMatched    int // pairs selected by maximum matching
	LDroppedOdd int // candidate edges dropped by odd-cycle 2-coloring
	LPairs      int // pairs kept after repair (== flashes saved)
}

// Result is the outcome of model-based fracturing.
type Result struct {
	Shots []geom.Rect // final shot set
	// Pairs lists the L-shot pairs of Shots as {i, j} index pairs with
	// i < j: each pair is two rectangles written as one L-shaped flash
	// sharing one dose. Empty unless Options.LShots.
	Pairs   [][2]int
	Stats   cover.Stats // violations of Shots (with Pairs' shared dose)
	Initial []geom.Rect // solution after the coloring stage, before refinement
	Info    StageInfo
}

// ShotCount returns the number of shots in the final solution. Each
// L-shot pair counts as two entries here; see FlashCount for the
// e-beam flash count.
func (r *Result) ShotCount() int { return len(r.Shots) }

// FlashCount returns the number of e-beam flashes the solution writes
// in: every L-shot pair is one flash, every unpaired rectangle is one.
func (r *Result) FlashCount() int { return len(r.Shots) - len(r.Pairs) }

// Fracture runs the full method on a prepared problem.
func Fracture(p *cover.Problem, opt Options) *Result {
	return FractureCtx(context.Background(), p, opt)
}

// FractureCtx is Fracture with telemetry: when ctx carries a trace
// (telemetry.WithTrace), each stage of the method — corner extraction,
// clustering, graph construction, coloring, shot reconstruction, and
// every refinement iteration — records a span with its duration and
// key statistics. Without a trace the instrumentation is free.
func FractureCtx(ctx context.Context, p *cover.Problem, opt Options) *Result {
	opt = opt.withDefaults()
	res := &Result{}
	res.Info.VerticesIn = len(p.Target)

	actx, sp := telemetry.StartSpan(ctx, "mbf.approximate")
	shots, info := approximateFracture(actx, p, opt)
	sp.Set("shots", len(shots))
	sp.End()
	res.Initial = append([]geom.Rect(nil), shots...)
	res.Info = info
	res.Info.VerticesIn = len(p.Target)
	res.Info.InitialShots = len(shots)

	final := shots
	if !opt.SkipRefinement {
		var iters int
		final, iters = refine(ctx, p, shots, opt)
		res.Info.RefineIterations = iters
	}
	if opt.LShots {
		lshots, pairs, ls := lshotPass(ctx, p, final, opt)
		res.Shots = lshots
		res.Pairs = pairs
		res.Info.LCandidates = ls.candidates
		res.Info.LMatched = ls.matched
		res.Info.LDroppedOdd = ls.droppedOdd
		res.Info.LPairs = ls.pairs
		res.Stats = p.EvaluatePaired(lshots, pairs)
		return res
	}
	res.Shots = final
	res.Stats = p.Evaluate(final)
	return res
}

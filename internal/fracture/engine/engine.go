package engine

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	"maskfrac/internal/cover"
	"maskfrac/internal/geom"
	"maskfrac/internal/telemetry"
)

// Region is one independent cluster of an instance's targets: no shot
// placed for its targets can change the dose at any constrained pixel
// of another region, and vice versa.
type Region struct {
	Targets []int     // indices into Problem.Targets, ascending
	Bounds  geom.Rect // union of the member targets' bounding boxes
}

// Plan clusters targets into provably independent regions with a
// sort-and-sweep union-find over their bounding boxes inflated by
// radius, the instance's interaction radius 3σ+γ
// (cover.Instance.InteractionRadius). It reads the bounds alone, before
// any grid exists. The truncated Gaussian kernel delivers exactly zero
// dose beyond 3σ of a shot edge and the solvers keep shots within the
// γ-neighborhood of their targets, so two clusters whose inflated boxes
// are disjoint — farther apart than 2·(3σ+γ) — cannot affect each
// other's constrained pixels: splitting them is exact, with zero
// quality loss. Regions are ordered by their smallest target index and
// list their targets ascending, which fixes the stitch order.
func Plan(targets []geom.Polygon, radius float64) []Region {
	n := len(targets)
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	find := func(i int) int {
		for parent[i] != i {
			parent[i] = parent[parent[i]]
			i = parent[i]
		}
		return i
	}
	boxes := make([]geom.Rect, n)
	for i, t := range targets {
		boxes[i] = t.Bounds().Inset(-radius)
	}
	// Sort and sweep: visit the boxes by left edge, keeping those whose
	// right edge lies beyond the current left edge. A box dropped from
	// that set cannot overlap any later box, so every overlapping pair
	// is still tested, at the cost of the overlaps in x rather than of
	// all pairs. The union keeps the smaller root, so each component's
	// root is its smallest target whatever the visiting order.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return boxes[order[a]].X0 < boxes[order[b]].X0 })
	var active []int
	for _, i := range order {
		kept := active[:0]
		for _, j := range active {
			if boxes[j].X1 > boxes[i].X0 {
				kept = append(kept, j)
			}
		}
		active = kept
		for _, j := range active {
			if boxes[i].Overlaps(boxes[j]) {
				ri, rj := find(i), find(j)
				if ri != rj {
					if rj < ri {
						ri, rj = rj, ri
					}
					parent[rj] = ri
				}
			}
		}
		active = append(active, i)
	}
	// regionOf maps a root to its region's index. An index, not a
	// pointer: appending a region may move the slice, and a pointer
	// kept from before would send later members to a stale copy.
	regionOf := make(map[int]int, n)
	var regions []Region
	for i, t := range targets {
		root := find(i)
		ri, ok := regionOf[root]
		if !ok {
			ri = len(regions)
			regionOf[root] = ri
			regions = append(regions, Region{})
		}
		reg := &regions[ri]
		reg.Targets = append(reg.Targets, i)
		if len(reg.Targets) == 1 {
			reg.Bounds = t.Bounds()
		} else {
			reg.Bounds = reg.Bounds.Union(t.Bounds())
		}
	}
	// targets are visited in ascending order, so each region's Targets
	// slice is ascending and regions are already ordered by their
	// smallest member
	return regions
}

// Config tunes one engine run.
type Config struct {
	// Method names the registered solver to run on every region.
	Method string
	// Options are the method-generic solver knobs.
	Options Options
	// Workers caps the goroutines of the run — region solves and the
	// helpers that fan out inside one solve — at the caller plus
	// Workers−1 pool tokens; <= 0 selects GOMAXPROCS and 1 runs
	// sequentially. Ignored when the context already carries a Pool
	// (the enclosing batch or server then owns the budget). Workers
	// never changes the result — parallel and sequential runs stitch
	// byte-identical shot lists.
	Workers int
}

// RegionResult describes one region's solve within a Result.
type RegionResult struct {
	Targets []int     // indices into Problem.Targets
	Bounds  geom.Rect // union of the region's target bounds
	Shots   int       // shots the region contributed
	Runtime time.Duration
	// Stage holds the region solver's stage statistics (nil when the
	// solver reports none).
	Stage any
}

// Result is the stitched outcome of an engine run.
type Result struct {
	// Shots is the merged shot list, ordered by (region index, shot
	// order within the region) — deterministic regardless of Workers.
	Shots []geom.Rect
	// Pairs lists L-shot pairs of Shots as {i, j} index pairs with
	// i < j, in region order with each region's pair indices offset by
	// the shots the preceding regions contributed. Nil for
	// rectangle-only methods.
	Pairs   [][2]int
	Regions []RegionResult // in region order
}

// Solve runs the decompose–solve–stitch pipeline: plan the independent
// regions from the targets' bounds, sample and solve each region as its
// own problem — the caller plus bounded pool-token helpers work-steal
// regions off a size-sorted queue, largest first — and merge the shot
// lists in region order. A one-region instance (one shape, or a main
// feature whose SRAFs all sit within interaction range) takes the same
// path, and no grid covering several regions is ever sampled. The
// solver's ctx carries the run's Pool, from which a solver may take
// helpers for the work inside one solve. When ctx carries a telemetry
// trace, the run records "plan", per-region "region" spans, each with
// a "sample" child, and a "stitch" span.
func Solve(ctx context.Context, in *cover.Instance, cfg Config) (*Result, error) {
	fn, ok := Lookup(cfg.Method)
	if !ok {
		return nil, fmt.Errorf("engine: unknown method %q (registered: %s)",
			cfg.Method, strings.Join(Names(), ", "))
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	pool := PoolFrom(ctx)
	if pool == nil {
		workers := cfg.Workers
		if workers <= 0 {
			workers = runtime.GOMAXPROCS(0)
		}
		// the calling goroutine solves too, so it needs workers-1 extras
		pool = NewPool(workers - 1)
		ctx = WithPool(ctx, pool)
	}
	_, planSpan := telemetry.StartSpan(ctx, "plan")
	radius := in.InteractionRadius()
	regions := Plan(in.Targets, radius)
	planSpan.Set("targets", len(in.Targets))
	planSpan.Set("regions", len(regions))
	planSpan.End()

	results := make([]RegionResult, len(regions))
	shots := make([][]geom.Rect, len(regions))
	pairs := make([][][2]int, len(regions))
	errs := make([]error, len(regions))
	solveRegion := func(i int) {
		rctx, span := telemetry.StartSpan(ctx, "region")
		span.Set("index", i)
		span.Set("targets", len(regions[i].Targets))
		defer span.End()
		if err := ctx.Err(); err != nil {
			errs[i] = err
			return
		}
		start := time.Now()
		_, sampleSpan := telemetry.StartSpan(rctx, "sample")
		sub := in.Sample(regions[i].Targets)
		sampleSpan.Set("pixels_on", sub.OnCount())
		sampleSpan.Set("pixels_off", sub.OffCount())
		sampleSpan.End()
		sol, err := fn(rctx, sub, cfg.Options)
		if err != nil {
			errs[i] = fmt.Errorf("engine: region %d: %w", i, err)
			return
		}
		shots[i] = sol.Shots
		pairs[i] = sol.Pairs
		results[i] = RegionResult{
			Targets: regions[i].Targets,
			Bounds:  regions[i].Bounds,
			Shots:   len(sol.Shots),
			Runtime: time.Since(start),
			Stage:   sol.Stage,
		}
		span.Set("shots", len(sol.Shots))
	}
	// Work-stealing over the size-sorted region queue: the caller and
	// every pool-token helper loop popping the largest remaining region
	// (LPT order), so workers that finish small regions immediately
	// steal the next one instead of being assigned a fixed share. With
	// no token free the caller drains the whole queue inline — the
	// engine always makes progress with zero extra concurrency.
	queue := newRegionQueue(regions, radius, in.Params.Pitch)
	pool.Fan(len(regions)-1, func(slot int) {
		for {
			i, ok := queue.pop()
			if !ok {
				return
			}
			if slot > 0 {
				engineStealsTotal.Add(1)
			}
			solveRegion(i)
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	_, stitchSpan := telemetry.StartSpan(ctx, "stitch")
	total := 0
	for _, s := range shots {
		total += len(s)
	}
	merged := make([]geom.Rect, 0, total)
	var mergedPairs [][2]int
	for ri, s := range shots {
		// re-base the region's L-shot pair indices onto the merged list:
		// the region's shot k sits at position base+k after the stitch
		base := len(merged)
		for _, pr := range pairs[ri] {
			mergedPairs = append(mergedPairs, [2]int{base + pr[0], base + pr[1]})
		}
		merged = append(merged, s...)
	}
	stitchSpan.Set("regions", len(regions))
	stitchSpan.Set("shots", total)
	stitchSpan.Set("pairs", len(mergedPairs))
	stitchSpan.End()
	return &Result{Shots: merged, Pairs: mergedPairs, Regions: results}, nil
}

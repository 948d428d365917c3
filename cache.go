package maskfrac

import (
	"context"
	"fmt"
	"time"

	"maskfrac/internal/maskio"
	"maskfrac/internal/shapecache"
)

// ShapeCache is a content-addressed cache of fracturing solutions.
// Solutions are keyed by a canonical form of the target polygon
// (translated to the origin and reduced over the eight axis-aligned
// symmetries) together with the parameters, method and options, so
// congruent repeated shapes — the dominant case on a real mask, where
// billions of polygons repeat a small dictionary — run the solver once
// per congruence class. It is safe for concurrent use and deduplicates
// in-flight solves of the same class.
//
// A hit returns the cached run's shot list mapped into the query's
// frame along with the cached evaluation (FailOn/FailOff/Cost) and
// timings. The mapped shots deliver a dose field exactly congruent to
// the cached one; see DESIGN.md ("Shape canonicalization and the cache
// key") for why the cached evaluation is reported instead of
// re-sampling it on the query grid.
type ShapeCache struct {
	c *shapecache.Cache
}

// NewShapeCache returns a cache bounded to maxEntries stored
// congruence classes; maxEntries <= 0 selects a default of 4096.
func NewShapeCache(maxEntries int) *ShapeCache {
	return &ShapeCache{c: shapecache.New(maxEntries)}
}

// CacheStats is a snapshot of the cache counters.
type CacheStats = shapecache.Stats

// Stats returns a snapshot of the hit/miss/eviction counters and size.
func (sc *ShapeCache) Stats() CacheStats { return sc.c.Stats() }

// ClassStat is a per-congruence-class frequency record: placement
// count, solved shot count and canonical bounding box. The stencil
// planner mines these.
type ClassStat = shapecache.ClassStat

// TopClasses returns the k highest-placement congruence classes seen by
// the cache (k <= 0 returns all tracked classes). The records survive
// LRU eviction of their entries.
func (sc *ShapeCache) TopClasses(k int) []ClassStat { return sc.c.TopClasses(k) }

// CacheKey identifies a congruence class in the shape cache.
type CacheKey = shapecache.Key

// AddClassUses credits the congruence class k with n extra placements
// without running a lookup. Batch clients that memoize congruent
// placements locally (the cluster pipeline's class memo) collapse many
// placements into one request, which would starve the stencil
// planner's frequency signal; they call this to report the collapsed
// multiplicity.
func (sc *ShapeCache) AddClassUses(k CacheKey, n uint64) { sc.c.AddClassUses(k, n) }

// CacheKeyFor returns the key FractureCached files the query under:
// the canonical form of target hashed together with the parameters,
// method and options. Callers crediting class statistics out of band
// (AddClassUses) use it to address the same record the solve created.
func CacheKeyFor(target Polygon, params Params, m Method, opt *Options) (CacheKey, error) {
	if err := target.Validate(); err != nil {
		return CacheKey{}, fmt.Errorf("maskfrac: invalid target: %w", err)
	}
	return shapecache.Canonicalize(target).KeyWith(fractureKeyExtra(params, m, opt)), nil
}

// cachedSolution is the per-entry metadata stored next to the
// canonical-frame shot list.
type cachedSolution struct {
	FailOn   int
	FailOff  int
	Cost     float64
	Runtime  time.Duration
	EvalTime time.Duration
	Stage    *StageInfo
	// Pairs are the run's L-shot pairs as indices into the shot list.
	// ToCanonical/FromCanonical preserve element order, so the indices
	// are valid in both the canonical and the query frame.
	Pairs [][2]int
}

// FractureCached samples and fractures one target, consulting the
// cache first when it is non-nil. It returns the result, whether it was
// served from the cache (or an in-flight solve of a congruent shape),
// and any error. A nil cache always runs the solver. The context is
// checked before solving; cancellation while waiting on a concurrent
// solve of the same congruence class returns ctx.Err().
func FractureCached(ctx context.Context, target Polygon, params Params, m Method, opt *Options, cache *ShapeCache) (*Result, bool, error) {
	if err := ctx.Err(); err != nil {
		return nil, false, err
	}
	if cache == nil {
		res, err := fractureDirect(ctx, target, params, m, opt)
		return res, false, err
	}
	if err := target.Validate(); err != nil {
		return nil, false, fmt.Errorf("maskfrac: invalid target: %w", err)
	}
	canon := shapecache.Canonicalize(target)
	key := canon.KeyWith(fractureKeyExtra(params, m, opt))
	var computed *Result
	entry, hit, err := cache.c.Do(ctx, key, func() (*shapecache.Entry, error) {
		res, err := fractureDirect(ctx, target, params, m, opt)
		if err != nil {
			return nil, err
		}
		computed = res
		sol := &cachedSolution{
			FailOn:   res.FailOn,
			FailOff:  res.FailOff,
			Cost:     res.Cost,
			Runtime:  res.Runtime,
			EvalTime: res.EvalTime,
			Stage:    res.Stage,
			Pairs:    res.LPairs,
		}
		return &shapecache.Entry{
			Shots: canon.ToCanonical(res.Shots),
			Pairs: res.LPairs,
			Meta:  sol,
			Bytes: entryBytes(len(res.Shots), len(res.LPairs)),
		}, nil
	})
	if err != nil {
		return nil, false, err
	}
	if !hit && computed != nil {
		// this call ran the solver: return its result untouched
		return computed, false, nil
	}
	sol := entry.Meta.(*cachedSolution)
	res := &Result{
		Method:   m,
		Shots:    canon.FromCanonical(entry.Shots),
		LPairs:   sol.Pairs,
		FailOn:   sol.FailOn,
		FailOff:  sol.FailOff,
		Cost:     sol.Cost,
		Runtime:  sol.Runtime,
		EvalTime: sol.EvalTime,
	}
	if sol.Stage != nil {
		st := *sol.Stage
		res.Stage = &st
	}
	return res, true, nil
}

// fractureDirect is the uncached solve path.
func fractureDirect(ctx context.Context, target Polygon, params Params, m Method, opt *Options) (*Result, error) {
	prob, err := NewProblem(target, params)
	if err != nil {
		return nil, err
	}
	return prob.FractureCtx(ctx, m, opt)
}

// fractureKeyExtra serializes everything besides the shape that can
// change a solution: parameters, method and options.
func fractureKeyExtra(params Params, m Method, opt *Options) []byte {
	buf := make([]byte, 0, 96)
	for _, v := range []float64{params.Sigma, params.Gamma, params.Rho, params.Pitch, params.Lmin, params.Beta, params.Eta} {
		buf = maskio.AppendFloat64(buf, v)
	}
	buf = append(buf, 0)
	buf = append(buf, m...)
	buf = append(buf, 0)
	if opt != nil {
		buf = maskio.AppendFloat64(buf, float64(opt.MaxIterations))
		order := opt.ColoringOrder
		if order == "" {
			order = "sequential"
		}
		buf = append(buf, order...)
		buf = append(buf, 0)
		if opt.SkipRefinement {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
	} else {
		buf = maskio.AppendFloat64(buf, 0)
		buf = append(buf, "sequential"...)
		buf = append(buf, 0, 0)
	}
	return buf
}

// entryBytes estimates the memory footprint of a cache entry.
func entryBytes(shots, pairs int) int64 {
	const overhead = 160 // key, metadata struct, list/map bookkeeping
	return int64(shots)*32 + int64(pairs)*16 + overhead
}

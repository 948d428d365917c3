package maskfrac

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"maskfrac/internal/fracture/engine"
)

// BatchItem is the outcome of fracturing one shape in a batch.
type BatchItem struct {
	Index    int
	Result   *Result
	Err      error
	CacheHit bool // the result came from the shape cache
}

// FractureBatch fractures many target shapes concurrently with the
// given method. A full mask contains billions of polygons and each
// shape is fractured independently (paper §2), so the mask data prep
// flow is embarrassingly parallel; workers ≤ 0 selects GOMAXPROCS.
// Results are returned in input order. Shapes that fail to sample or
// fracture carry their error in the corresponding item. When ctx is
// cancelled, no further shapes are dispatched and every undone item
// carries ctx.Err(); shapes already being solved run to completion.
// A non-nil cache sits in front of the solver: congruent repeated
// shapes run the solver once per congruence class and items served
// from the cache set CacheHit. A nil cache solves every shape.
func FractureBatch(ctx context.Context, targets []Polygon, params Params, m Method, opt *Options, workers int, cache *ShapeCache) []BatchItem {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	spawn := workers
	if spawn > len(targets) {
		spawn = len(targets)
	}
	// batch-level and region-level concurrency share one bounded pool:
	// worker slots the batch does not need (more workers than shapes)
	// become extra tokens the engine's region solves may claim, so a
	// batch of one huge multi-SRAF instance still parallelizes while a
	// full batch never oversubscribes the worker budget
	if engine.PoolFrom(ctx) == nil {
		ctx = engine.WithPool(ctx, engine.NewPool(workers-spawn))
	}
	workers = spawn
	items := make([]BatchItem, len(targets))
	var wg sync.WaitGroup
	work := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := range work {
				if err := ctx.Err(); err != nil {
					items[idx] = BatchItem{Index: idx, Err: err}
					continue
				}
				items[idx] = fractureOne(ctx, idx, targets[idx], params, m, opt, cache)
			}
		}()
	}
dispatch:
	for i := range targets {
		select {
		case work <- i:
		case <-ctx.Done():
			for j := i; j < len(targets); j++ {
				items[j] = BatchItem{Index: j, Err: ctx.Err()}
			}
			break dispatch
		}
	}
	close(work)
	wg.Wait()
	return items
}

// fractureOne samples and fractures a single shape, capturing errors.
func fractureOne(ctx context.Context, idx int, target Polygon, params Params, m Method, opt *Options, cache *ShapeCache) BatchItem {
	res, hit, err := FractureCached(ctx, target, params, m, opt, cache)
	if err != nil {
		return BatchItem{Index: idx, Err: fmt.Errorf("maskfrac: shape %d: %w", idx, err)}
	}
	return BatchItem{Index: idx, Result: res, CacheHit: hit}
}

// BatchSummary aggregates a batch run.
type BatchSummary struct {
	Shapes    int
	Errors    int
	Shots     int
	Failing   int
	Feasible  int // shapes with zero failing pixels
	CacheHits int // shapes served from the shape cache
}

// Summarize folds batch items into totals.
func Summarize(items []BatchItem) BatchSummary {
	var s BatchSummary
	s.Shapes = len(items)
	for _, it := range items {
		if it.Err != nil {
			s.Errors++
			continue
		}
		if it.CacheHit {
			s.CacheHits++
		}
		s.Shots += it.Result.ShotCount()
		s.Failing += it.Result.FailingPixels()
		if it.Result.Feasible() {
			s.Feasible++
		}
	}
	return s
}

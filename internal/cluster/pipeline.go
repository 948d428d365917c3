package cluster

import (
	"context"
	"fmt"
	"sync"
	"time"

	"maskfrac/internal/flight"
	"maskfrac/internal/geom"
	"maskfrac/internal/maskio"
	"maskfrac/internal/shapecache"
	"maskfrac/internal/telemetry"
	"maskfrac/internal/writecost"
)

// PipelineConfig tunes one full-mask run.
type PipelineConfig struct {
	// Workers is the number of placements canonicalized/resolved
	// concurrently (default 8). Distinct congruence classes solve in
	// parallel up to this bound; repeated classes resolve from the run's
	// memo without touching the cluster.
	Workers int
	// Window bounds the reorder buffer that restores walk order on
	// output (default 4*Workers). It is the only pipeline state that
	// grows with placement skew, so memory stays O(Window + classes)
	// regardless of mask size.
	Window int
	// OnResult, when non-nil, observes every placement in walk order
	// (Seq strictly increasing). Returning an error aborts the run.
	OnResult func(*PlacementResult) error
}

func (c PipelineConfig) withDefaults() PipelineConfig {
	if c.Workers <= 0 {
		c.Workers = 8
	}
	if c.Window <= 0 {
		c.Window = 4 * c.Workers
	}
	return c
}

// PlacementResult is one placement's outcome, in placement (world)
// coordinates.
type PlacementResult struct {
	Seq    int64
	Cell   string
	Shape  int
	Orient maskio.Orient
	Origin geom.Point
	Key    shapecache.Key
	// Class is the cluster's canonical-frame answer, shared by every
	// placement of the congruence class.
	Class *ClassResult
	// Shots is the shot list mapped into this placement's frame; nil
	// unless the client requested shots.
	Shots []geom.Rect
}

// MaskResult aggregates a full-mask run.
type MaskResult struct {
	// Placements is the number of shape placements streamed.
	Placements int64
	// Classes is the number of distinct congruence classes solved.
	Classes int
	// ClusterRequests counts SolveClass calls issued (== Classes: the
	// memo stops repeats, singleflight stops concurrent duplicates).
	ClusterRequests int64
	// NodeCacheHits counts classes answered from a node's cache shard —
	// nonzero only when nodes were warm before the run.
	NodeCacheHits int
	// Shots is the mask total: each class's shot count times its
	// placement multiplicity.
	Shots int64
	// Flashes is the mask's beam flash total: Shots minus the classes'
	// L-shot pairs times their multiplicities. Equal to Shots for
	// rectangle-only methods; this is what the write time is priced on.
	Flashes int64
	// FailOn/FailOff total CD violations across all placements.
	FailOn, FailOff int64
	// Infeasible counts placements whose class solution violates CD
	// constraints.
	Infeasible int64
	// ClassUsesCredited is the number of classes whose memoized
	// placement multiplicity was reported back to the owning nodes'
	// statistics after the run (see Client.ReportClassUses).
	ClassUsesCredited int
	// WriteTime is the modeled mask write time for Flashes under
	// writecost.Default().
	WriteTime time.Duration
	// Elapsed is the wall-clock run time.
	Elapsed time.Duration
}

// RunPipeline streams lib's placements through the cluster and
// reassembles results in deterministic walk order. The walker runs
// incrementally — back-pressure from the reorder window pauses it, so
// the pipeline never materializes the flattened mask.
func RunPipeline(ctx context.Context, c *Client, lib *maskio.Library, cfg PipelineConfig) (*MaskResult, error) {
	cfg = cfg.withDefaults()
	if err := lib.Validate(); err != nil {
		return nil, fmt.Errorf("cluster: invalid library: %w", err)
	}
	start := time.Now()
	ctx, span := telemetry.StartSpan(ctx, "cluster.pipeline")
	defer span.End()
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	type job struct {
		pl  maskio.Placement
		can shapecache.Canonical
		key shapecache.Key
		fut chan *PlacementResult // buffered(1); closed without a value on failure
	}
	jobs := make(chan job, cfg.Workers)
	order := make(chan chan *PlacementResult, cfg.Window)

	var (
		firstErr error
		errOnce  sync.Once
		// the run's class memo: a class appearing in a million
		// placements crosses the network once
		memo   flight.Group[shapecache.Key, *ClassResult]
		memoMu sync.Mutex
		solved = make(map[shapecache.Key]*ClassResult)
		// classPoly keeps one representative canonical polygon per class
		// so the post-run multiplicity report can address the owning
		// node's record (the server re-derives its key from the shape).
		classPoly = make(map[shapecache.Key]geom.Polygon)
	)
	fail := func(err error) {
		errOnce.Do(func() { firstErr = err; cancel() })
	}

	// producer: walk the hierarchy, canonicalize, hand each placement a
	// future. The order channel's capacity is the reorder window; when
	// the consumer falls behind, send blocks and the walk pauses.
	go func() {
		defer close(jobs)
		defer close(order)
		err := lib.Walk(func(pl maskio.Placement) error {
			can := shapecache.Canonicalize(pl.Polygon)
			j := job{pl: pl, can: can, key: can.KeyWith([]byte(c.cfg.Method)), fut: make(chan *PlacementResult, 1)}
			select {
			case order <- j.fut:
			case <-ctx.Done():
				return ctx.Err()
			}
			select {
			case jobs <- j:
			case <-ctx.Done():
				// the future is already queued in order but no worker
				// will ever see the job; close it so the consumer's
				// drain does not block forever
				close(j.fut)
				return ctx.Err()
			}
			return nil
		})
		if err != nil && ctx.Err() == nil {
			fail(err)
		}
	}()

	// workers: resolve each placement's class (memo → singleflight →
	// router) and fulfill its future out of order. Workers exit when the
	// producer closes jobs; the consumer below outlives them because
	// every future is fulfilled before its worker moves on.
	for w := 0; w < cfg.Workers; w++ {
		go func() {
			for j := range jobs {
				res, _, err := memo.Do(ctx, j.key, func() (*ClassResult, bool) {
					memoMu.Lock()
					defer memoMu.Unlock()
					res, ok := solved[j.key]
					return res, ok
				}, func() (*ClassResult, error) {
					res, err := c.SolveClass(ctx, j.key, j.can.Poly)
					if err == nil {
						memoMu.Lock()
						solved[j.key] = res
						classPoly[j.key] = j.can.Poly
						memoMu.Unlock()
					}
					return res, err
				})
				if err != nil {
					fail(fmt.Errorf("cluster: placement %d (%s): %w", j.pl.Seq, j.pl.Cell, err))
					close(j.fut)
					continue
				}
				pr := &PlacementResult{
					Seq:    j.pl.Seq,
					Cell:   j.pl.Cell,
					Shape:  j.pl.Shape,
					Orient: j.pl.Orient,
					Origin: j.pl.Origin,
					Key:    j.key,
					Class:  res,
				}
				if res.Shots != nil {
					pr.Shots = j.can.FromCanonical(res.Shots)
				}
				j.fut <- pr
			}
		}()
	}

	// consumer: drain futures in walk order and aggregate. uses counts
	// each class's placement multiplicity — the memo collapses repeats
	// into one wire request, so the owning node's statistics see one
	// lookup where the mask has uses[key] placements; the surplus is
	// reported back after the run.
	mr := &MaskResult{}
	uses := make(map[shapecache.Key]uint64)
	aborted := false
	for fut := range order {
		pr, ok := <-fut
		if !ok {
			aborted = true
			continue // failure recorded via fail(); keep draining
		}
		mr.Placements++
		mr.Shots += int64(pr.Class.ShotCount)
		mr.Flashes += int64(pr.Class.ShotCount - len(pr.Class.LPairs))
		mr.FailOn += int64(pr.Class.FailOn)
		mr.FailOff += int64(pr.Class.FailOff)
		if !pr.Class.Feasible {
			mr.Infeasible++
		}
		if uses[pr.Key] == 0 {
			if pr.Class.CacheHit {
				mr.NodeCacheHits++
			}
		}
		uses[pr.Key]++
		// honor the documented abort contract: once a failure is
		// recorded, later placements still drain (to release workers)
		// but are no longer observed.
		if cfg.OnResult != nil && !aborted {
			if err := cfg.OnResult(pr); err != nil {
				fail(err)
				aborted = true
			}
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	mr.Classes = len(uses)
	mr.ClusterRequests = int64(len(uses))
	mr.WriteTime = writecost.Default().WriteTime(mr.Flashes)
	// report memoized multiplicities: each class's wire request already
	// credited one placement on the owning node, so only the collapsed
	// surplus (count − 1) is reported. Without this the stencil planner
	// would mine request counts and undervalue heavily repeated classes.
	extras := make(map[shapecache.Key]ClassUse)
	for key, n := range uses {
		if n > 1 {
			extras[key] = ClassUse{Poly: classPoly[key], Uses: n - 1}
		}
	}
	mr.ClassUsesCredited = c.ReportClassUses(ctx, extras)
	mr.Elapsed = time.Since(start)
	span.Set("placements", mr.Placements)
	span.Set("classes", mr.Classes)
	span.Set("class_uses_credited", mr.ClassUsesCredited)
	return mr, nil
}

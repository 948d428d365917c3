package mbf

import (
	"context"
	"math"
	"runtime"
	"sort"
	"sync/atomic"

	"maskfrac/internal/cover"
	"maskfrac/internal/fracture/engine"
	"maskfrac/internal/fracture/fixup"
	"maskfrac/internal/geom"
	"maskfrac/internal/telemetry"
)

// refine runs the iterative shot refinement of paper §4 (Algorithm 1) on
// the approximate solution and returns the best configuration found
// (fewest failing pixels, ties broken by shot count) plus the number of
// iterations executed. The loop stops when no pixel fails, when
// refinePatience iterations pass without a new best, or at opt.Nmax.
// Edge moves are scored on the caller plus helpers from the ctx's
// engine pool. When ctx carries a trace, the pass records a
// "mbf.refine" span, tagged with why the loop stopped, with one
// "mbf.iter" child per iteration annotated with the shot count,
// remaining CD violations and evaluations used.
func refine(ctx context.Context, p *cover.Problem, shots []geom.Rect, opt Options) ([]geom.Rect, int) {
	span := telemetry.ActiveSpan(ctx).Child("mbf.refine")
	pool := engine.PoolFrom(ctx)
	e := cover.NewEval(p, shots)
	defer e.Close()
	best := e.SnapshotShots()
	bestFail := e.Stats().Fail()
	if bestFail == 0 {
		span.Set("iterations", 0)
		span.Set("stop", "converged")
		span.End()
		return best, 0
	}
	var history []float64 // recent cost values for stall detection
	iters, lastBest := 0, 0
	stop := "cap"
	st := e.Stats()
	for iter := 0; iter < opt.Nmax; iter++ {
		iters = iter + 1
		if st.Fail() < bestFail || (st.Fail() == bestFail && len(e.Shots) < len(best)) {
			best = e.SnapshotShots()
			bestFail = st.Fail()
			lastBest = iter
		}
		if bestFail == 0 {
			stop = "converged"
			break
		}
		if iter-lastBest >= refinePatience {
			stop = "patience"
			break
		}
		iterSpan := span.Child("mbf.iter")
		evalsBefore := e.Evals
		pxBefore := e.PixelsScored + e.PixelsMutated
		if stalled(history, opt.NH) {
			// cost has not improved for NH iterations: change the shot
			// count (paper lines 5-11)
			if st.FailOn > st.FailOff {
				addShot(e)
			} else if len(e.Shots) > 0 {
				removeShot(e)
			}
			if !opt.DisableMerge {
				mergeShots(e, opt)
			}
			history = history[:0]
		} else {
			moved := greedyEdgeAdjust(e, opt, pool)
			if !moved && !opt.DisableBias {
				biasAllShotsWith(e, st)
			}
		}
		st = e.Stats()
		history = append(history, st.Cost)
		if len(history) > opt.NH+1 {
			history = history[1:]
		}
		if iterSpan != nil {
			iterSpan.Set("shots", len(e.Shots))
			iterSpan.Set("fail_on", st.FailOn)
			iterSpan.Set("fail_off", st.FailOff)
			iterSpan.Set("evals", e.Evals-evalsBefore)
			iterSpan.Set("px", e.PixelsScored+e.PixelsMutated-pxBefore)
			iterSpan.End()
		}
	}
	span.Set("iterations", iters)
	span.Set("stop", stop)
	span.Set("fail", bestFail)
	span.Set("evals", e.Evals)
	span.Set("mutations", e.Mutations)
	span.Set("px", e.PixelsScored+e.PixelsMutated)
	span.End()
	best = polish(ctx, p, best)
	best = postCleanup(ctx, p, best, opt)
	return best, iters
}

// polish clears residual violations the stall-driven loop left behind:
// alternate targeted shot addition (for underdosed blobs) with bounded
// edge adjustment (which also shrinks overdosing shots), keeping the
// best state. Uses the same operators as Algorithm 1, sequenced
// deterministically instead of stall-triggered.
func polish(ctx context.Context, p *cover.Problem, shots []geom.Rect) []geom.Rect {
	ctx, span := telemetry.StartSpan(ctx, "mbf.polish")
	defer span.End()
	e := cover.NewEval(p, shots)
	defer func() { e.Close() }()
	best := e.SnapshotShots()
	bestFail := e.Stats().Fail()
	for iter := 0; iter < 30 && bestFail > 0; iter++ {
		st := e.Stats()
		if st.FailOn > 0 {
			addShot(e)
		}
		fixup.EdgeAdjustCtx(ctx, p, e, 25)
		if f := e.Stats().Fail(); f < bestFail {
			bestFail = f
			best = e.SnapshotShots()
		} else if f > bestFail {
			// diverging: restart from the best state, recycling the
			// stale evaluator's buffers into the replacement
			e.Close()
			e = cover.NewEval(p, best)
		}
	}
	return best
}

// postCleanup reduces the shot count of the final solution without
// letting the number of failing pixels grow: shots whose removal keeps
// all constraints satisfied are deleted, then the Fig-5 merge pass runs
// once more and is kept only if it does not hurt. (Refinement exits as
// soon as |Pfail| reaches zero, so the in-loop merge never sees the
// final configuration.)
func postCleanup(ctx context.Context, p *cover.Problem, shots []geom.Rect, opt Options) []geom.Rect {
	ctx, span := telemetry.StartSpan(ctx, "mbf.cleanup")
	defer span.End()
	e := cover.NewEval(p, shots)
	defer func() { e.Close() }()
	baseStats := e.Stats()
	baseFail := baseStats.Fail()
	baseCost := baseStats.Cost
	fixup.DropRedundant(e)
	if !opt.DisableMerge {
		candidate := cover.NewEval(p, e.SnapshotShots())
		mergeShots(candidate, opt)
		if st := candidate.Stats(); st.Fail() <= baseFail && st.Cost <= baseCost+1e-9 && len(candidate.Shots) < len(e.Shots) {
			e.Close()
			e = candidate
		} else {
			candidate.Close()
		}
	}
	out, st := removeAndRepair(ctx, p, e.SnapshotShots(), baseFail)
	span.Set("rounds", st.rounds)
	span.Set("stop", st.stop)
	span.Set("speculative_trials", st.speculative)
	return out
}

// cleanupMaxShots is the most shots removeAndRepair's quadratic pass
// takes on; counts this high never win anyway.
const cleanupMaxShots = 48

// cleanupStats reports a removeAndRepair pass: the rounds it ran, the
// trials that ran past a round's first success and were discarded, and
// why it stopped — "skipped" above cleanupMaxShots shots, "no_removal"
// once a round removes nothing.
type cleanupStats struct {
	rounds, speculative int
	stop                string
}

// removeAndRepair tries to delete each shot and let a bounded
// edge-adjustment pass re-cover its area with the survivors' slack; a
// deletion is kept when the violation count does not grow. The greedy
// coloring stage over-segments wavy shapes (several near-parallel
// cliques produce shots that almost shadow each other), and this pass
// collapses them while the paper's in-loop removal cannot (refinement
// exits the moment the solution turns feasible).
//
// Each round scans the trials in index order and keeps the first that
// succeeds. The trials of a round depend only on the round's shot
// list, so the caller and helpers from the ctx's engine pool run them
// as an ordered parallel search: they claim indices in ascending
// order, stop claiming past the lowest success found so far, and the
// round keeps the lowest-index success — the one the sequential scan
// keeps.
func removeAndRepair(ctx context.Context, p *cover.Problem, shots []geom.Rect, baseFail int) ([]geom.Rect, cleanupStats) {
	if len(shots) > cleanupMaxShots {
		return shots, cleanupStats{stop: "skipped"}
	}
	pool := engine.PoolFrom(ctx)
	cur, st := shots, cleanupStats{stop: "no_removal"}
	for {
		st.rounds++
		n := len(cur)
		repaired := make([][]geom.Rect, n) // trial i's shots, nil unless it succeeded
		var next, first, ran atomic.Int64
		first.Store(int64(n))
		pool.Fan(helpers(pool, n), func(int) {
			for {
				i := next.Add(1) - 1
				if i >= int64(n) || i > first.Load() {
					return
				}
				trial := make([]geom.Rect, 0, n-1)
				trial = append(trial, cur[:i]...)
				trial = append(trial, cur[i+1:]...)
				e := cover.NewEval(p, trial)
				fixup.EdgeAdjustCtx(ctx, p, e, 30)
				if e.Stats().Fail() <= baseFail {
					repaired[i] = e.SnapshotShots()
					for f := first.Load(); i < f; f = first.Load() {
						if first.CompareAndSwap(f, i) {
							break
						}
					}
				}
				e.Close()
				ran.Add(1)
			}
		})
		f := int(first.Load())
		if f == n {
			return cur, st
		}
		// every trial up to the first success ran; the rest were speculative
		st.speculative += int(ran.Load()) - (f + 1)
		cur = repaired[f]
	}
}

// helpers returns how many helpers a fan-out over units items of work
// asks the pool for: no more than its tokens, the CPUs beside the
// caller's, or the items beside the caller's first one.
func helpers(pool *engine.Pool, units int) int {
	return max(0, min(pool.Extra(), runtime.GOMAXPROCS(0)-1, units-1))
}

// stalled reports whether the cost failed to improve by more than 1e-6
// over the last NH iterations.
func stalled(history []float64, nh int) bool {
	if len(history) <= nh {
		return false
	}
	first := history[0]
	bestLater := math.Inf(1)
	for _, c := range history[1:] {
		bestLater = math.Min(bestLater, c)
	}
	return first-bestLater < 1e-6
}

// greedyEdgeAdjust implements the paper's main refinement move (§4.1):
// score moving every shot edge by ±Δp, sort by cost reduction, and
// accept reducing moves greedily while blocking any further edge within
// 2σ of an accepted one (to avoid canceling move cycles). Reports
// whether any edge moved. Each edge's ±Δp pair is scored by one
// Scorer.EdgeDeltas call. Paired L-shot arms participate like any
// other shot — the scores and ApplyDelta carry the shared-dose overlap
// term — but only moves that Eval.LegalMove accepts are considered.
func greedyEdgeAdjust(e *cover.Eval, opt Options, pool *engine.Pool) bool {
	p := e.P
	pitch := p.Params.Pitch
	type cand struct {
		shot  int
		s     geom.Side
		d     float64
		delta float64
	}
	if len(e.Shots) == 0 {
		return false
	}
	// score each (shot, side) unit's better move against the current
	// state into the unit's slot: the caller and pool helpers claim
	// units off a shared cursor, each scoring through its own Scorer,
	// and the slots merge in unit order, so the candidate list is the
	// sequential loop's whatever the helper count
	units := make([]cand, len(e.Shots)*len(geom.Sides))
	scorers := e.Scorers(1 + helpers(pool, len(units)))
	var next atomic.Int64
	used := pool.Fan(len(scorers)-1, func(slot int) {
		sc := scorers[slot]
		for {
			u := int(next.Add(1) - 1)
			if u >= len(units) {
				return
			}
			i, s := u/len(geom.Sides), geom.Sides[u%len(geom.Sides)]
			best := cand{delta: math.Inf(1)}
			delta, legal := sc.EdgeDeltas(i, s, pitch)
			for k, d := range [2]float64{pitch, -pitch} {
				if legal[k] && delta[k] < best.delta {
					best = cand{shot: i, s: s, d: d, delta: delta[k]}
				}
			}
			units[u] = best
		}
	})
	for _, sc := range scorers[:used] {
		sc.Fold()
	}
	cands := units[:0]
	for _, c := range units {
		if c.delta < -1e-12 {
			cands = append(cands, c)
		}
	}
	if len(cands) == 0 {
		return false
	}
	sort.SliceStable(cands, func(a, b int) bool { return cands[a].delta < cands[b].delta })
	blockRadius := 2 * p.Params.Sigma
	type seg struct{ a, b geom.Point }
	var blocked []seg
	moved := false
	for _, c := range cands {
		nr := e.Shots[c.shot].MoveEdge(c.s, c.d)
		if !e.LegalMove(c.shot, nr) {
			continue // opposite edge (or the L partner) may have moved already
		}
		a, b := nr.EdgeSegment(c.s)
		if !opt.DisableBlocking {
			hit := false
			for _, bs := range blocked {
				if geom.SegSegDist(a, b, bs.a, bs.b) < blockRadius {
					hit = true
					break
				}
			}
			if hit {
				continue
			}
		}
		// re-score against the current configuration; earlier accepted
		// moves may have changed the benefit
		delta := e.DeltaCost(c.shot, nr)
		if delta >= 0 {
			continue
		}
		e.ApplyDelta(c.shot, nr, delta)
		blocked = append(blocked, seg{a, b})
		moved = true
	}
	return moved
}

// biasAllShotsWith shifts every shot edge by one pixel (paper §4.2):
// when failing Pon pixels outnumber failing Poff pixels in st (the
// current stats) all shots shrink, otherwise all shots expand. (This is
// the paper's stated direction; it acts as a perturbation to escape
// local minima, not a greedy step.) A shot keeps its edges when
// Eval.LegalMove rejects the biased shot.
func biasAllShotsWith(e *cover.Eval, st cover.Stats) {
	d := e.P.Params.Pitch
	if st.FailOn <= st.FailOff {
		d = -d // expand
	}
	for i, r := range e.Shots {
		if nr := r.Inset(d); e.LegalMove(i, nr) {
			e.SetShot(i, nr)
		}
	}
}

// addShot adds one shot over the largest blob of failing Pon pixels
// (paper §4.3): the bounding box of the largest connected component of
// failing interior pixels, grown to the minimum shot size.
func addShot(e *cover.Eval) {
	if r, ok := fixup.LargestFailBox(e); ok {
		e.Add(e.P.Legalize(r))
	}
}

// removeShot removes the shot with the most failing Poff pixels within
// distance σ (paper §4.4): the dose of a shot is below 0.5 beyond σ, so
// deleting that shot most likely clears those violations.
func removeShot(e *cover.Eval) {
	p := e.P
	_, failOff := e.FailingBitmaps()
	g := p.Grid
	sigma := p.Params.Sigma
	counts := make([]int, len(e.Shots))
	for k, v := range failOff.Bits {
		if !v {
			continue
		}
		i, j := g.Coords(k)
		pt := g.Center(i, j)
		for si, s := range e.Shots {
			if s.Dist(pt) < sigma {
				counts[si]++
			}
		}
	}
	bestIdx, bestCount := 0, -1
	for si, c := range counts {
		if c > bestCount {
			bestIdx, bestCount = si, c
		}
	}
	if len(e.Shots) > 0 {
		e.Remove(bestIdx)
	}
}

// mergeShots merges shot pairs (paper §4.5, Fig 5): aligned shots whose
// x (or y) extents agree within γ merge by vertical (horizontal)
// extension when at least opt.MergeFrac of the merged shot lies inside
// the target, and fully contained shots are deleted. Repeats until no
// merge applies.
func mergeShots(e *cover.Eval, opt Options) {
	p := e.P
	gamma := p.Params.Gamma
	for {
		merged := false
	scan:
		for i := 0; i < len(e.Shots); i++ {
			for j := i + 1; j < len(e.Shots); j++ {
				si, sj := e.Shots[i], e.Shots[j]
				// criterion 2: containment
				if si.ContainsRect(sj) {
					e.Remove(j)
					merged = true
					break scan
				}
				if sj.ContainsRect(si) {
					e.Remove(i)
					merged = true
					break scan
				}
				// criterion 1: aligned extension
				if math.Abs(si.X0-sj.X0) <= gamma && math.Abs(si.X1-sj.X1) <= gamma {
					m := geom.Rect{
						X0: (si.X0 + sj.X0) / 2,
						X1: (si.X1 + sj.X1) / 2,
						Y0: math.Min(si.Y0, sj.Y0),
						Y1: math.Max(si.Y1, sj.Y1),
					}
					if p.InteriorFraction(m) >= opt.MergeFrac {
						e.Remove(j)
						e.SetShot(i, m)
						merged = true
						break scan
					}
				}
				if math.Abs(si.Y0-sj.Y0) <= gamma && math.Abs(si.Y1-sj.Y1) <= gamma {
					m := geom.Rect{
						Y0: (si.Y0 + sj.Y0) / 2,
						Y1: (si.Y1 + sj.Y1) / 2,
						X0: math.Min(si.X0, sj.X0),
						X1: math.Max(si.X1, sj.X1),
					}
					if p.InteriorFraction(m) >= opt.MergeFrac {
						e.Remove(j)
						e.SetShot(i, m)
						merged = true
						break scan
					}
				}
			}
		}
		if !merged {
			return
		}
	}
}

// MergePass applies the Fig-5 shot merging rules to a shot list until
// stable and returns the result. Exported for the figure-reproduction
// benchmarks.
func MergePass(p *cover.Problem, shots []geom.Rect) []geom.Rect {
	e := cover.NewEval(p, shots)
	defer e.Close()
	mergeShots(e, Options{}.withDefaults(p))
	return e.SnapshotShots()
}

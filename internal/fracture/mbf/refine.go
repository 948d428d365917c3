package mbf

import (
	"context"
	"math"
	"sort"

	"maskfrac/internal/cover"
	"maskfrac/internal/fracture/fixup"
	"maskfrac/internal/geom"
	"maskfrac/internal/telemetry"
)

// refine runs the iterative shot refinement of paper §4 (Algorithm 1) on
// the approximate solution and returns the best configuration found
// (fewest failing pixels, ties broken by shot count) plus the number of
// iterations executed. When ctx carries a trace, the pass records a
// "mbf.refine" span with one "mbf.iter" child per iteration annotated
// with the shot count, remaining CD violations and evaluations used.
func refine(ctx context.Context, p *cover.Problem, shots []geom.Rect, opt Options) ([]geom.Rect, int) {
	span := telemetry.ActiveSpan(ctx).Child("mbf.refine")
	e := cover.NewEval(p, shots)
	defer e.Close()
	best := e.SnapshotShots()
	bestFail := e.Stats().Fail()
	if bestFail == 0 {
		span.Set("iterations", 0)
		span.End()
		return best, 0
	}
	var history []float64 // recent cost values for stall detection
	iters := 0
	st := e.Stats()
	for iter := 0; iter < opt.Nmax; iter++ {
		iters = iter + 1
		if st.Fail() < bestFail || (st.Fail() == bestFail && len(e.Shots) < len(best)) {
			best = e.SnapshotShots()
			bestFail = st.Fail()
		}
		if bestFail == 0 {
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
			moved := greedyEdgeAdjust(e, opt)
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
	// drop redundant shots: rescan after every removal until stable
	for {
		removed := false
		for i := 0; i < len(e.Shots); i++ {
			s := e.Shots[i]
			e.Remove(i)
			if st := e.Stats(); st.Fail() <= baseFail && st.Cost <= baseCost+1e-9 {
				removed = true
				break
			}
			// removal hurt: back out, restoring the original order
			e.UndoRemove(i, s)
		}
		if !removed {
			break
		}
	}
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
	return removeAndRepair(ctx, p, e.SnapshotShots(), baseFail)
}

// removeAndRepair tries to delete each shot and let a bounded
// edge-adjustment pass re-cover its area with the survivors' slack; a
// deletion is kept when the violation count does not grow. The greedy
// coloring stage over-segments wavy shapes (several near-parallel
// cliques produce shots that almost shadow each other), and this pass
// collapses them while the paper's in-loop removal cannot (refinement
// exits the moment the solution turns feasible).
func removeAndRepair(ctx context.Context, p *cover.Problem, shots []geom.Rect, baseFail int) []geom.Rect {
	if len(shots) > 48 {
		return shots // quadratic pass too costly; counts this high never win anyway
	}
	cur := shots
	for {
		improved := false
		for i := 0; i < len(cur); i++ {
			trial := make([]geom.Rect, 0, len(cur)-1)
			trial = append(trial, cur[:i]...)
			trial = append(trial, cur[i+1:]...)
			e := cover.NewEval(p, trial)
			fixup.EdgeAdjustCtx(ctx, p, e, 30)
			repaired := e.Stats().Fail() <= baseFail
			if repaired {
				cur = e.SnapshotShots()
				improved = true
			}
			e.Close()
			if repaired {
				break
			}
		}
		if !improved {
			return cur
		}
	}
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
// whether any edge moved. Paired L-shot arms participate like any
// other shot — DeltaCost and ApplyDelta carry the shared-dose overlap
// term — but only moves that Eval.LegalMove accepts are considered.
func greedyEdgeAdjust(e *cover.Eval, opt Options) bool {
	p := e.P
	pitch := p.Params.Pitch
	type cand struct {
		shot  int
		s     geom.Side
		d     float64
		delta float64
	}
	var cands []cand
	for i, r := range e.Shots {
		for _, s := range geom.Sides {
			best := cand{delta: math.Inf(1)}
			for _, d := range []float64{pitch, -pitch} {
				nr := r.MoveEdge(s, d)
				if !e.LegalMove(i, nr) {
					continue
				}
				delta := e.DeltaCost(i, nr)
				if delta < best.delta {
					best = cand{shot: i, s: s, d: d, delta: delta}
				}
			}
			if best.delta < -1e-12 {
				cands = append(cands, best)
			}
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

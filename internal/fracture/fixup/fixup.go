// Package fixup provides the greedy completion passes shared by the
// solvers: covering residual failing interior pixels with component
// bounding-box shots (GSC, MP), the largest-failing-blob box behind
// every add-shot operator (MBF's addShot, Patch), and bounded ±Δp
// edge adjustment (GSC, MP, PROTO-EDA, MBF's polish and cleanup).
// Dictionary-driven methods cannot always fix convex-corner residues
// exactly; Patch finishes the cover the way a set-cover heuristic
// would, trying a few box variants per component and picking the one
// with the best net effect.
package fixup

import (
	"context"

	"maskfrac/internal/cover"
	"maskfrac/internal/geom"
	"maskfrac/internal/raster"
	"maskfrac/internal/telemetry"
)

// GreedyCover repeatedly adds the candidate shot with the best net
// benefit — failing interior pixels fixed minus offPenalty × exterior
// pixels newly pushed over the threshold — until the interior holds, no
// candidate scores positive, or the shot cap is reached. This is the
// core greedy set-cover loop; GSC uses it as its main phase and MP as a
// completion phase.
func GreedyCover(p *cover.Problem, e *cover.Eval, cands []geom.Rect, offPenalty float64, maxShots int) {
	for len(e.Shots) < maxShots {
		st := e.Stats()
		if st.FailOn == 0 {
			return
		}
		failOn, _ := e.FailingBitmaps()
		best, bestScore := geom.Rect{}, 0.0
		for _, c := range cands {
			if score := ScoreCandidate(p, e, failOn, c, offPenalty); score > bestScore {
				best, bestScore = c, score
			}
		}
		if bestScore <= 0 {
			return
		}
		e.Add(best)
	}
}

// ScoreCandidate estimates the net benefit of adding candidate c:
// failing interior pixels the shot would fix, minus a penalty for
// exterior pixels it would push over the threshold.
func ScoreCandidate(p *cover.Problem, e *cover.Eval, failOn *raster.Bitmap, c geom.Rect, offPenalty float64) float64 {
	g := p.Grid
	i0, j0, i1, j1 := p.Model.SupportBox(g, c)
	fixed, broken := 0, 0
	rho := p.Params.Rho
	for j := j0; j <= j1; j++ {
		y := g.Y0 + (float64(j)+0.5)*g.Pitch
		base := j * g.W
		for i := i0; i <= i1; i++ {
			k := base + i
			cls := p.Class[k]
			if cls == cover.Band {
				continue
			}
			x := g.X0 + (float64(i)+0.5)*g.Pitch
			inc := p.Model.ShotIntensity(c, geom.Pt(x, y))
			if inc < 1e-4 {
				continue
			}
			v := e.Dose.V[k]
			switch cls {
			case cover.On:
				if failOn.Bits[k] && v+inc >= rho {
					fixed++
				}
			case cover.Off:
				if v < rho && v+inc >= rho {
					broken++
				}
			}
		}
	}
	return float64(fixed) - offPenalty*float64(broken)
}

// PatchCtx is Patch with telemetry: when ctx carries a trace it
// records a "fixup.patch" span annotated with shots added and the
// remaining interior violations.
func PatchCtx(ctx context.Context, p *cover.Problem, e *cover.Eval, maxShots int) {
	span := telemetry.ActiveSpan(ctx).Child("fixup.patch")
	before := len(e.Shots)
	Patch(p, e, maxShots)
	if span != nil {
		span.Set("shots_added", len(e.Shots)-before)
		span.Set("fail_on", e.Stats().FailOn)
		span.End()
	}
}

// Patch adds shots over failing interior pixel components until the
// interior constraints hold, the shot cap is reached, or no variant
// makes progress.
func Patch(p *cover.Problem, e *cover.Eval, maxShots int) {
	for len(e.Shots) < maxShots {
		st := e.Stats()
		if st.FailOn == 0 {
			return
		}
		base, ok := LargestFailBox(e)
		if !ok {
			return
		}
		// try the box and slightly grown/shrunk variants, keep the one
		// with the best net fail reduction
		bestRect, bestFail := geom.Rect{}, st.Fail()
		for _, r := range []geom.Rect{base, base.Inset(-p.Params.Pitch), base.Inset(p.Params.Pitch)} {
			r = p.Legalize(r)
			e.Add(r)
			if f := e.Stats().Fail(); f < bestFail {
				bestRect, bestFail = r, f
			}
			e.Remove(len(e.Shots) - 1)
		}
		if bestRect.Empty() {
			return // nothing helps
		}
		e.Add(bestRect)
	}
}

// LargestFailBox returns the world bounding box of the largest
// connected blob of failing interior pixels, the box the add-shot
// operator covers (paper §4.3), and false when no interior pixel
// fails. Ties go to the lowest component id. The box is not legalized;
// callers grow it with Problem.Legalize.
func LargestFailBox(e *cover.Eval) (geom.Rect, bool) {
	failOn, _ := e.FailingBitmaps()
	var best raster.ComponentBox
	for _, b := range raster.ConnectedComponents(failOn).Boxes() {
		if b.Count > best.Count {
			best = b
		}
	}
	if best.Count == 0 {
		return geom.Rect{}, false
	}
	g := e.P.Grid
	return geom.Rect{
		X0: g.X0 + float64(best.I0)*g.Pitch,
		Y0: g.Y0 + float64(best.J0)*g.Pitch,
		X1: g.X0 + float64(best.I1+1)*g.Pitch,
		Y1: g.Y0 + float64(best.J1+1)*g.Pitch,
	}, true
}

// EdgeAdjustCtx is EdgeAdjust with telemetry: when ctx carries a trace
// it records a "fixup.edgeadjust" span annotated with the sweep budget
// and the remaining violations.
func EdgeAdjustCtx(ctx context.Context, p *cover.Problem, e *cover.Eval, sweeps int) {
	span := telemetry.ActiveSpan(ctx).Child("fixup.edgeadjust")
	EdgeAdjust(p, e, sweeps)
	if span != nil {
		span.Set("sweeps", sweeps)
		span.Set("fail", e.Stats().Fail())
		span.End()
	}
}

// EdgeAdjust runs a bounded greedy edge-adjustment loop: each sweep
// tries moving every edge of every shot by ±Δp and applies the best
// cost-reducing move per shot. Moves are judged by Eval.LegalMove, so
// L-shot pairs stay L-shaped. Used by baselines and by MBF's polish and
// cleanup to repair dose violations (typically boundary overdose)
// without the full refinement machinery of the paper's method. Returns
// the best configuration seen, pairs included.
func EdgeAdjust(p *cover.Problem, e *cover.Eval, sweeps int) {
	best := e.SnapshotShots()
	bestFail := e.Stats().Fail()
	pitch := p.Params.Pitch
	for iter := 0; iter < sweeps && bestFail > 0; iter++ {
		improved := false
		for i := range e.Shots {
			r := e.Shots[i]
			bestDelta, bestRect := -1e-12, geom.Rect{}
			for _, s := range geom.Sides {
				for _, d := range []float64{pitch, -pitch} {
					nr := r.MoveEdge(s, d)
					if !e.LegalMove(i, nr) {
						continue
					}
					if delta := e.DeltaCost(i, nr); delta < bestDelta {
						bestDelta, bestRect = delta, nr
					}
				}
			}
			if bestDelta < -1e-12 {
				e.ApplyDelta(i, bestRect, bestDelta)
				improved = true
			}
		}
		if f := e.Stats().Fail(); f < bestFail {
			best = e.SnapshotShots()
			bestFail = f
		}
		if !improved {
			break
		}
	}
	// restore the best configuration seen (skip the rebuild when the
	// final sweep already holds it); moves never change the pairing
	if !rectsEqual(e.Shots, best) {
		e.ResetPaired(best, e.Pairs())
	}
}

// rectsEqual reports whether two shot lists are identical.
func rectsEqual(a, b []geom.Rect) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

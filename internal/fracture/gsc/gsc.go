// Package gsc implements the greedy set cover baseline for model-based
// mask fracturing (Jiang & Zakhor, "Shot overlap model-based fracturing
// for edge-based OPC layouts"), one of the heuristics the paper
// benchmarks against (Tables 2/3, heuristic "GSC").
//
// A dictionary of candidate shots is enumerated from the maximal
// inscribed rectangles of the rasterized target (plus biased variants).
// Shots are picked greedily by net dose benefit; a looser second pass
// and a component-box patch pass finish residues the dictionary cannot
// express exactly.
package gsc

import (
	"maskfrac/internal/cover"
	"maskfrac/internal/fracture/fixup"
	"maskfrac/internal/fracture/shotdict"
	"maskfrac/internal/geom"
)

// offPenalty is the main greedy phase's weight of new exterior
// violations.
const offPenalty = 4

// Result is the outcome of the GSC baseline.
type Result struct {
	Shots []geom.Rect
	Stats cover.Stats
}

// Fracture runs greedy set cover on the problem with a cap of maxShots
// shots (0 selects 200).
func Fracture(p *cover.Problem, maxShots int) *Result {
	if maxShots == 0 {
		maxShots = 200
	}
	cands := shotdict.Candidates(p)
	e := cover.NewEval(p, nil)
	defer e.Close()
	fixup.GreedyCover(p, e, cands, offPenalty, maxShots)
	// second chance with a looser penalty, then box patching
	fixup.GreedyCover(p, e, cands, 1, maxShots)
	fixup.Patch(p, e, maxShots)
	fixup.EdgeAdjust(p, e, 40)
	return &Result{Shots: e.SnapshotShots(), Stats: e.Stats()}
}

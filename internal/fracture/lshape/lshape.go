// Package lshape implements L-shape based layout fracturing (Yu, Gao &
// Pan, ASP-DAC 2013 — the paper's reference [20]; arXiv:1402.2420):
// e-beam tools with an L-shaped aperture can expose an L-shaped region
// in a single flash, so a rectangle partition whose pieces pair up into
// L-shapes halves the flash count in the best case.
//
// The pipeline: rectilinearize curvilinear targets on a coarse grid →
// minimum rectangle partition → L-compatibility graph over the pieces →
// maximum matching. Compatibility and matching are the ones mbf-l uses
// (cover.UnionIsLShot, graphx.MatchEdges), so the two L-shot methods
// differ only in the rectangles they pair: a conventional partition
// here, a model-based cover there.
//
// This is the "non-rectangular shots" extension the paper cites and
// deliberately leaves out (fixed-dose rectangles need no tool change);
// it is the conventional L-shot baseline, with no proximity
// compensation.
package lshape

import (
	"fmt"

	"maskfrac/internal/cover"
	"maskfrac/internal/fracture/engine"
	"maskfrac/internal/fracture/partition"
	"maskfrac/internal/geom"
	"maskfrac/internal/graphx"
	"maskfrac/internal/raster"
)

// fractureGrid is the coarse rectilinearization pitch for curvilinear
// targets in nm, as a conventional tool's fracture grid would use
// (pixel-level staircasing would explode the rectangle count).
const fractureGrid = 4

// Fracture partitions the problem's targets into rectangles and pairs
// them into L-shots: the solution's Shots are the partition and its
// Pairs the matched L-shots, each pair written as one flash.
func Fracture(p *cover.Problem) (*engine.Solution, error) {
	pieces := p.Targets
	for _, t := range p.Targets {
		if t.IsRectilinear() {
			continue
		}
		var err error
		if pieces, err = raster.Rectilinearize(p.Targets, fractureGrid); err != nil {
			return nil, fmt.Errorf("lshape: %w", err)
		}
		if len(pieces) == 0 {
			return nil, fmt.Errorf("lshape: target rasterizes to nothing")
		}
		break
	}
	var rects []geom.Rect
	for _, piece := range pieces {
		rs, err := partition.Minimum(piece)
		if err != nil {
			return nil, fmt.Errorf("lshape: %w", err)
		}
		rects = append(rects, rs...)
	}
	return &engine.Solution{Shots: rects, Pairs: pairRects(rects)}, nil
}

// pairRects returns a maximum set of disjoint L-compatible rectangle
// pairs as {i, j} index pairs with i < j, sorted ascending.
func pairRects(rects []geom.Rect) [][2]int {
	var edges [][2]int
	for i := range rects {
		for j := i + 1; j < len(rects); j++ {
			if cover.UnionIsLShot(rects[i], rects[j]) {
				edges = append(edges, [2]int{i, j})
			}
		}
	}
	matched, _ := graphx.MatchEdges(len(rects), edges)
	var pairs [][2]int
	for _, k := range matched {
		pairs = append(pairs, edges[k])
	}
	return pairs
}

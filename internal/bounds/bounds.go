// Package bounds computes per-shape lower and upper bounds on the
// optimal shot count, standing in for the ILP-based bounds of the
// ICCAD'14 benchmarking flow the paper normalizes against (Table 2's
// LB/UB column). See DESIGN.md for the substitution rationale.
//
//   - Upper bound: the shot count of a conventional rectilinear
//     partition of the (rasterized) target — a feasible non-overlapping
//     fracture always exists at that count, and overlap can only help.
//   - Lower bound: a greedy independent set in the shot-corner
//     compatibility graph. Corner points of pairwise-incompatible types
//     cannot be written by one shot, so each needs its own; the bound is
//     heuristic in the same sense as the benchmark's time-limited ILP
//     lower bounds.
package bounds

import (
	"maskfrac/internal/cover"
	"maskfrac/internal/fracture/mbf"
	"maskfrac/internal/fracture/partition"
	"maskfrac/internal/raster"
)

// Bounds holds the shot-count bounds for one shape.
type Bounds struct {
	Lower int
	Upper int
}

// Compute returns shot-count bounds for the problem's target shape.
func Compute(p *cover.Problem) Bounds {
	return Bounds{Lower: lowerBound(p), Upper: upperBound(p)}
}

// upperBound counts the rectangles of a minimum rectilinear partition
// of the rasterized target. Rasterization staircases curvilinear
// boundaries, so the partition runs on a coarsened contour first (like
// a conventional fracture tool would), falling back to the sweep
// partition when the chord recursion fails.
func upperBound(p *cover.Problem) int {
	coarse := raster.GridCovering(p.TargetBounds(), 4, 4)
	bm := raster.NewBitmap(coarse)
	for _, t := range p.Targets {
		raster.RasterizeInto(bm.Bits, coarse, coarse.Whole(), t)
	}
	total := 0
	for _, pg := range raster.Contours(bm) {
		if !pg.IsCCW() {
			continue
		}
		rects, err := partition.Minimum(pg)
		if err != nil {
			if rects, err = partition.Sweep(pg); err != nil {
				continue
			}
		}
		total += len(rects)
	}
	return total
}

// lowerBound runs the corner-extraction stage of the paper's method and
// takes a greedy independent set of the compatibility graph. Any two
// corner points without a compatibility edge cannot be corners of the
// same shot, so a pairwise-incompatible set needs that many distinct
// shots to realize the extracted corners.
func lowerBound(p *cover.Problem) int {
	g := mbf.CompatibilityGraph(p)
	if g == nil || g.N == 0 {
		return 1
	}
	n := len(g.GreedyIndependentSet())
	if n < 1 {
		n = 1
	}
	return n
}

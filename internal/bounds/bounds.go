// Package bounds computes a per-shape upper bound on the optimal shot
// count, standing in for the ILP-based upper bounds of the ICCAD'14
// benchmarking flow the paper normalizes against (Table 2's UB
// column). See DESIGN.md for the substitution rationale.
//
// The bound is the shot count of a conventional rectilinear partition
// of the (rasterized) target: a non-overlapping fracture always exists
// at that count, and overlap can only help. Nothing evaluates that
// partition under the dose model, so it is a normalizer rather than a
// known feasible count.
package bounds

import (
	"maskfrac/internal/cover"
	"maskfrac/internal/fracture/partition"
	"maskfrac/internal/raster"
)

// Upper counts the rectangles of a minimum rectilinear partition of
// the rasterized target. Rasterization staircases curvilinear
// boundaries, so the partition runs on a coarsened contour first (like
// a conventional fracture tool would), falling back to the sweep
// partition when the chord recursion fails.
func Upper(p *cover.Problem) int {
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

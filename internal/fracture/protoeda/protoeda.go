// Package protoeda is the stand-in for PROTO-EDA, the prototype
// commercial EDA mask shot decomposition capability the paper
// benchmarks against (Tables 2/3). The real tool is proprietary; this
// substitute mirrors the production mask-data-prep recipe of the era:
//
//  1. rectilinearize the target on a coarse grid (the tool's fracture
//     grid), absorbing curvilinear detail into staircase steps,
//  2. run an optimal geometric rectangle partition (chords + matching),
//  3. bias every partition rectangle outward so isolated edges print at
//     the dose threshold, allowing shot overlap,
//  4. merge aligned/contained shots, and
//  5. run a short model-based cleanup (the same edge-adjustment loop as
//     the paper's method, with a much smaller budget and without the
//     full add/remove escape machinery).
//
// Like the real PROTO-EDA in the paper's Table 3, the substitute may
// leave a small number of failing pixels on hard wavy-boundary shapes.
package protoeda

import (
	"maskfrac/internal/cover"
	"maskfrac/internal/fracture/fixup"
	"maskfrac/internal/fracture/partition"
	"maskfrac/internal/geom"
	"maskfrac/internal/raster"
)

// Options tune the substitute.
type Options struct {
	FractureGrid float64 // coarse rectilinearization pitch (default 4 nm)
	Bias         float64 // outward shot bias (default 1 pixel)
	CleanupIters int     // model-based cleanup budget (default 60)
}

// Result is the outcome of the PROTO-EDA substitute.
type Result struct {
	Shots []geom.Rect
	Stats cover.Stats
}

// Fracture runs the PROTO-EDA substitute on the problem.
func Fracture(p *cover.Problem, opt Options) *Result {
	if opt.FractureGrid == 0 {
		opt.FractureGrid = 6
	}
	if opt.Bias == 0 {
		opt.Bias = p.Params.Pitch
	}
	if opt.CleanupIters == 0 {
		opt.CleanupIters = 60
	}
	shots := initialShots(p, opt)
	e := cover.NewEval(p, shots)
	fixup.EdgeAdjust(p, e, opt.CleanupIters)
	shots = mergePass(p, e.SnapshotShots())
	e.Close()
	shots = dropRedundant(p, shots)
	return &Result{Shots: shots, Stats: p.Evaluate(shots)}
}

// initialShots rectilinearizes the target on the coarse fracture grid,
// partitions it into rectangles and biases them outward.
func initialShots(p *cover.Problem, opt Options) []geom.Rect {
	pieces, err := raster.Rectilinearize(p.Targets, opt.FractureGrid)
	if err != nil {
		return nil
	}
	var rects []geom.Rect
	for _, pg := range pieces {
		rs, err := partition.Minimum(pg)
		if err != nil {
			if rs, err = partition.Sweep(pg); err != nil {
				continue
			}
		}
		rects = append(rects, rs...)
	}
	out := make([]geom.Rect, 0, len(rects))
	for _, r := range rects {
		out = append(out, p.Legalize(r.Inset(-opt.Bias)))
	}
	return mergePass(p, out)
}

// mergePass collapses contained shots and merges aligned shots whose
// union stays mostly inside the target. It applies the Fig-5 rules as
// mbf.mergeShots does, but deletes in order-preserving fashion where
// Eval.Remove swap-deletes, so the two stay separate: sharing one would
// change PROTO-EDA output.
func mergePass(p *cover.Problem, shots []geom.Rect) []geom.Rect {
	gamma := p.Params.Gamma
	for {
		merged := false
	scan:
		for i := 0; i < len(shots); i++ {
			for j := i + 1; j < len(shots); j++ {
				si, sj := shots[i], shots[j]
				var m geom.Rect
				switch {
				case si.ContainsRect(sj):
					m = si
				case sj.ContainsRect(si):
					m = sj
				case abs(si.X0-sj.X0) <= gamma && abs(si.X1-sj.X1) <= gamma:
					m = geom.Rect{X0: (si.X0 + sj.X0) / 2, X1: (si.X1 + sj.X1) / 2,
						Y0: min(si.Y0, sj.Y0), Y1: max(si.Y1, sj.Y1)}
					if p.InteriorFraction(m) < 0.9 {
						continue
					}
				case abs(si.Y0-sj.Y0) <= gamma && abs(si.Y1-sj.Y1) <= gamma:
					m = geom.Rect{Y0: (si.Y0 + sj.Y0) / 2, Y1: (si.Y1 + sj.Y1) / 2,
						X0: min(si.X0, sj.X0), X1: max(si.X1, sj.X1)}
					if p.InteriorFraction(m) < 0.9 {
						continue
					}
				default:
					continue
				}
				shots[i] = m
				shots = append(shots[:j], shots[j+1:]...)
				merged = true
				break scan
			}
		}
		if !merged {
			return shots
		}
	}
}

// dropRedundant removes shots whose removal leaves the violation count
// and cost no worse — overlap from the bias step often makes interior
// partition rectangles redundant.
func dropRedundant(p *cover.Problem, shots []geom.Rect) []geom.Rect {
	e := cover.NewEval(p, shots)
	defer e.Close()
	base := e.Stats()
	for {
		removed := false
		for i := 0; i < len(e.Shots); i++ {
			s := e.Shots[i]
			e.Remove(i)
			if st := e.Stats(); st.Fail() <= base.Fail() && st.Cost <= base.Cost+1e-9 {
				removed = true
				break
			}
			e.UndoRemove(i, s)
		}
		if !removed {
			return e.SnapshotShots()
		}
	}
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

func min(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

func max(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

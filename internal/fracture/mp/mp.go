// Package mp implements the matching pursuit baseline for model-based
// mask fracturing (Jiang & Zakhor, "Application of signal reconstruction
// techniques to shot count reduction in simulation driven fracturing"),
// the heuristic "MP" of the paper's Tables 2/3.
//
// The target dose image (1 inside the shape, 0 outside) is approximated
// as a sum of shot atoms. Each iteration picks the dictionary shot with
// the highest normalized correlation against the current residual
// (computed with a summed-area table over the candidate rectangle) and
// subtracts the shot's exact blurred intensity from the residual.
package mp

import (
	"math"

	"maskfrac/internal/cover"
	"maskfrac/internal/fracture/fixup"
	"maskfrac/internal/fracture/shotdict"
	"maskfrac/internal/geom"
	"maskfrac/internal/raster"
)

// minCorr stops the pursuit when the best normalized correlation falls
// below it.
const minCorr = 0.5

// Result is the outcome of the MP baseline.
type Result struct {
	Shots []geom.Rect
	Stats cover.Stats
}

// Fracture runs matching pursuit on the problem with a cap of maxShots
// iterations and shots (0 selects 150).
func Fracture(p *cover.Problem, maxShots int) *Result {
	if maxShots == 0 {
		maxShots = 150
	}
	cands := shotdict.Rich(p, 24, 0.55)
	g := p.Grid
	// residual = desired dose − current dose; desired is the full-dose
	// indicator of the target
	res := raster.NewField(g)
	for k, in := range p.Inside.Bits {
		if in {
			res.V[k] = 1
		}
	}
	e := cover.NewEval(p, nil)
	defer e.Close()
	sat := make([]float64, (g.W+1)*(g.H+1))
	for len(e.Shots) < maxShots {
		buildSAT(res, sat)
		best, bestScore := geom.Rect{}, minCorr
		for _, c := range cands {
			s := boxSum(g, sat, c)
			if s <= 0 {
				continue
			}
			// normalized correlation against the (approximately
			// indicator-shaped) atom: <R, atom>/||atom||
			score := s / math.Sqrt(c.Area()/(g.Pitch*g.Pitch))
			if score > bestScore {
				best, bestScore = c, score
			}
		}
		if best.Empty() {
			break
		}
		e.Add(best)
		p.Model.AccumulateShot(res, best, -1)
		if st := e.Stats(); st.Fail() == 0 {
			break
		}
	}
	// matching pursuit leaves residues its dictionary cannot express
	// (typically corner patches and crescents); complete the cover with
	// the dose-aware greedy pass, then box patching
	fixup.GreedyCover(p, e, cands, 1, maxShots)
	fixup.Patch(p, e, maxShots)
	// unit-dose atoms overdose the exterior near boundary overlaps;
	// repair with bounded edge-adjustment passes (matching pursuit is
	// the slowest heuristic in the paper's tables, so a generous repair
	// budget is in character)
	fixup.EdgeAdjust(p, e, 150)
	fixup.Patch(p, e, maxShots)
	fixup.EdgeAdjust(p, e, 150)
	return &Result{Shots: e.SnapshotShots(), Stats: e.Stats()}
}

// buildSAT fills sat with the summed-area table of f: sat[(j)*(W+1)+i]
// is the sum over pixels with coordinates < (i, j).
func buildSAT(f *raster.Field, sat []float64) {
	g := f.Grid
	w := g.W + 1
	for i := 0; i < w; i++ {
		sat[i] = 0
	}
	for j := 0; j < g.H; j++ {
		rowSum := 0.0
		for i := 0; i < g.W; i++ {
			rowSum += f.V[j*g.W+i]
			sat[(j+1)*w+i+1] = sat[j*w+i+1] + rowSum
		}
		sat[(j+1)*w] = 0
	}
}

// boxSum returns the residual sum over the pixels whose centers lie in
// rectangle r.
func boxSum(g raster.Grid, sat []float64, r geom.Rect) float64 {
	i0 := int(math.Ceil((r.X0-g.X0)/g.Pitch - 0.5))
	j0 := int(math.Ceil((r.Y0-g.Y0)/g.Pitch - 0.5))
	i1 := int(math.Ceil((r.X1-g.X0)/g.Pitch-0.5)) - 1
	j1 := int(math.Ceil((r.Y1-g.Y0)/g.Pitch-0.5)) - 1
	i0, j0 = g.ClampX(i0), g.ClampY(j0)
	i1, j1 = g.ClampX(i1), g.ClampY(j1)
	if i1 < i0 || j1 < j0 {
		return 0
	}
	w := g.W + 1
	return sat[(j1+1)*w+i1+1] - sat[j0*w+i1+1] - sat[(j1+1)*w+i0] + sat[j0*w+i0]
}

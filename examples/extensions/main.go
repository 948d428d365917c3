// Extensions beyond the paper's fixed-dose rectangular shots: L-shaped
// shots (its reference [20]) and variable-dose shots (its reference
// [18]), plus mask-quality metrics (EPE, dose slope, slivers) for the
// resulting solutions.
package main

import (
	"fmt"
	"log"

	"maskfrac"
	"maskfrac/internal/cover"
	"maskfrac/internal/fracture/mbf"
	"maskfrac/internal/fracture/vdose"
	"maskfrac/internal/metrics"
)

func main() {
	params := maskfrac.DefaultParams()
	clip := maskfrac.ILTSuite()[0]
	p, err := cover.NewProblem(clip.Target, params)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("clip %s: %d vertices\n\n", clip.Name, len(clip.Target))

	// Baseline: the paper's fixed-dose method.
	fixed := mbf.Fracture(p, mbf.Options{})
	fmt.Printf("fixed-dose (paper's method): %d shots, %d failing pixels\n",
		len(fixed.Shots), fixed.Stats.Fail())
	epe := metrics.EPE(p, fixed.Shots, 2)
	slope, minSlope := metrics.DoseSlope(p, fixed.Shots, 4)
	sliv := metrics.Slivers(fixed.Shots, 10)
	fmt.Printf("  EPE: mean %+.2f nm, RMS %.2f nm, p95 %.2f nm, max %.2f nm\n",
		epe.Mean, epe.RMS, epe.P95, epe.Max)
	fmt.Printf("  dose slope: mean %.4f /nm (min %.4f), slivers<10nm: %d/%d\n\n",
		slope, minSlope, sliv.Slivers, sliv.Shots)

	// Extension 1: variable-dose shots. Optimize per-shot doses, then
	// try deleting shots whose area neighbors can re-cover at higher dose.
	vd := vdose.Optimize(p, fixed.Shots, vdose.Options{})
	vd = vdose.Reduce(p, vd, vdose.Options{})
	fmt.Printf("variable-dose extension: %d shots, %d failing pixels\n",
		vd.ShotCount(), vd.Stats.Fail())
	lo, hi := 10.0, 0.0
	for _, s := range vd.Shots {
		if s.Dose < lo {
			lo = s.Dose
		}
		if s.Dose > hi {
			hi = s.Dose
		}
	}
	fmt.Printf("  dose range used: %.2f .. %.2f of nominal\n\n", lo, hi)

	// Extension 2: L-shaped shots on a rectilinear version of the clip
	// (conventional partition, pairs written as single L shots).
	lprob, err := maskfrac.NewProblem(clip.Target, params)
	if err != nil {
		log.Fatal(err)
	}
	ls, err := lprob.Fracture(maskfrac.MethodLShape, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("L-shape extension: %d rectangles pair into %d shots (%d L-shots)\n",
		ls.ShotCount(), ls.FlashCount(), len(ls.LPairs))
	fmt.Printf("  note: partition-based, no proximity compensation — %d failing pixels\n",
		ls.FailingPixels())
}

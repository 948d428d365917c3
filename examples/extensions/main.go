// Extensions beyond the paper's rectangular shots: L-shaped shots (its
// reference [20]), plus mask-quality metrics (EPE, dose slope, slivers)
// for the paper's fixed-dose solution.
package main

import (
	"fmt"
	"log"

	"maskfrac"
	"maskfrac/internal/cover"
	"maskfrac/internal/fracture/mbf"
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
	epe := metrics.EPE(p.Model, p.Params.Rho, p.Targets, fixed.Shots, 2)
	slope, minSlope := metrics.DoseSlope(p, fixed.Shots, 4)
	sliv := metrics.Slivers(fixed.Shots, 10)
	fmt.Printf("  EPE: mean %+.2f nm, RMS %.2f nm, p95 %.2f nm, max %.2f nm\n",
		epe.Mean, epe.RMS, epe.P95, epe.Max)
	fmt.Printf("  dose slope: mean %.4f /nm (min %.4f), slivers<10nm: %d/%d\n\n",
		slope, minSlope, sliv.Slivers, sliv.Shots)

	// Extension: L-shaped shots on a rectilinear version of the clip
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

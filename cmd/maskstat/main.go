// Command maskstat prints a mask-quality report for a fractured shape:
// shot statistics, CD violations, edge placement error distribution,
// dose slope and estimated write cost impact.
//
// Usage:
//
//	maskstat [-in shapes.msk] [-shape NAME] [-shots shots.txt] [-method mbf]
//
// Without -shots the shape is fractured with the chosen method first.
package main

import (
	"flag"
	"fmt"
	"os"

	"maskfrac"
	"maskfrac/internal/cover"
	"maskfrac/internal/geom"
	"maskfrac/internal/maskio"
	"maskfrac/internal/metrics"
)

func main() {
	var (
		in     = flag.String("in", "", "input .msk shape file (default: built-in ILT-1)")
		shape  = flag.String("shape", "", "shape name (default: first)")
		shots  = flag.String("shots", "", "shot list file; when empty, fracture with -method")
		method = flag.String("method", "mbf", "fracturing method when -shots is empty")
	)
	flag.Parse()
	var target maskfrac.Polygon
	if *in == "" {
		target = maskfrac.ILTSuite()[0].Target
	} else {
		s, err := maskio.LoadShape(*in, *shape)
		if err != nil {
			fatal(err)
		}
		target = s.Polygon
	}
	params := maskfrac.DefaultParams()
	p, err := cover.NewProblem(target, params)
	if err != nil {
		fatal(err)
	}
	var shotList []geom.Rect
	if *shots != "" {
		f, err := os.Open(*shots)
		if err != nil {
			fatal(err)
		}
		shotList, err = maskio.ReadShots(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
	} else {
		prob, err := maskfrac.NewProblem(target, params)
		if err != nil {
			fatal(err)
		}
		res, err := prob.Fracture(maskfrac.Method(*method), nil)
		if err != nil {
			fatal(err)
		}
		shotList = res.Shots
		fmt.Printf("fractured with %s in %v\n", *method, res.Runtime.Round(1e6))
	}

	st := p.Evaluate(shotList)
	fmt.Printf("shots:          %d\n", len(shotList))
	fmt.Printf("CD violations:  %d (on=%d off=%d), cost %.3f\n", st.Fail(), st.FailOn, st.FailOff, st.Cost)

	sliv := metrics.Slivers(shotList, 10)
	fmt.Printf("slivers <10nm:  %d of %d (min dimension %.1f nm, mean aspect %.1f)\n",
		sliv.Slivers, sliv.Shots, sliv.MinDim, sliv.MeanAspect)

	epe := metrics.EPE(p.Model, p.Params.Rho, p.Targets, shotList, 2)
	fmt.Printf("EPE:            mean %+.2f nm, RMS %.2f nm, p95 %.2f nm, max %.2f nm (%d samples)\n",
		epe.Mean, epe.RMS, epe.P95, epe.Max, epe.Samples)

	slope, minSlope := metrics.DoseSlope(p, shotList, 4)
	fmt.Printf("dose slope:     mean %.4f /nm, min %.4f /nm\n", slope, minSlope)
	fmt.Printf("write proxy:    %.2f (shots + area term)\n", metrics.WriteTimeProxy(shotList))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "maskstat:", err)
	os.Exit(1)
}

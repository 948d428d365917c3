// ILT mask data prep flow: fracture a suite of curvilinear ILT-like
// clips with every available heuristic and compare shot counts,
// violations and runtimes — the workflow of the paper's Table 2.
package main

import (
	"fmt"
	"log"

	"maskfrac"
)

func main() {
	params := maskfrac.DefaultParams()
	suite := maskfrac.ILTSuite()[:4] // first four clips keep the demo quick
	methods := []maskfrac.Method{
		maskfrac.MethodMBF,
		maskfrac.MethodProtoEDA,
		maskfrac.MethodGSC,
	}

	fmt.Println("ILT mask data prep: per-clip fracturing comparison")
	fmt.Println()
	totals := map[maskfrac.Method]int{}
	for _, clip := range suite {
		prob, err := maskfrac.NewProblem(clip.Target, params)
		if err != nil {
			log.Fatal(err)
		}
		on, off := prob.PixelCounts()
		fmt.Printf("%s: %d vertices, %d interior / %d exterior pixels, upper bound %d\n",
			clip.Name, len(clip.Target), on, off, prob.Bounds())
		for _, m := range methods {
			res, err := prob.Fracture(m, nil)
			if err != nil {
				log.Fatal(err)
			}
			totals[m] += res.ShotCount()
			fmt.Printf("  %-10s %3d shots  %4d failing  %7.2fs\n",
				m, res.ShotCount(), res.FailingPixels(), res.Runtime.Seconds())
		}
		fmt.Println()
	}
	fmt.Println("total shots:")
	for _, m := range methods {
		fmt.Printf("  %-10s %d\n", m, totals[m])
	}
	if totals[maskfrac.MethodProtoEDA] > 0 {
		saving := 100 * (1 - float64(totals[maskfrac.MethodMBF])/float64(totals[maskfrac.MethodProtoEDA]))
		fmt.Printf("\nmodel-based fracturing uses %.0f%% fewer shots than the conventional-tool baseline\n", saving)
	}
}

// Full-mask data prep: fracture a batch of clips in parallel (each
// shape is independent, as the paper notes a practical tool must
// exploit), then roll the shot totals into the mask write-time and
// cost model.
//
// With -write-gds, instead emit the synthetic full-mask layout as a
// hierarchical GDSII file (SREF/AREF, ten congruence classes repeated
// across the grid) — the input format cmd/loadgen replays against a
// fracd cluster.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"time"

	"maskfrac"
	"maskfrac/internal/maskio"
	"maskfrac/internal/shapegen"
	"maskfrac/internal/writecost"
)

func main() {
	writeGDS := flag.String("write-gds", "", "write the synthetic full-mask hierarchy as GDSII to this path and exit")
	cols := flag.Int("cols", 8, "tile columns for -write-gds")
	rows := flag.Int("rows", 8, "tile rows for -write-gds")
	flag.Parse()

	if *writeGDS != "" {
		lib := shapegen.DemoLibrary(*cols, *rows)
		n, err := lib.PlacementCount()
		if err != nil {
			log.Fatal(err)
		}
		f, err := os.Create(*writeGDS)
		if err != nil {
			log.Fatal(err)
		}
		if err := maskio.WriteGDSLib(f, lib); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s: %d cells, %d×%d tile grid, %d placements\n",
			*writeGDS, len(lib.Cells), *cols, *rows, n)
		return
	}

	params := maskfrac.DefaultParams()
	suite := maskfrac.ILTSuite()
	targets := make([]maskfrac.Polygon, len(suite))
	for i, b := range suite {
		targets[i] = b.Target
	}

	fmt.Printf("fracturing %d clips on %d workers (proto-eda, then mbf)...\n\n",
		len(targets), runtime.GOMAXPROCS(0))

	t0 := time.Now()
	conv := maskfrac.FractureBatch(context.Background(), targets, params, maskfrac.MethodProtoEDA, nil, 0, nil)
	convSummary := maskfrac.Summarize(conv)
	fmt.Printf("conventional tool: %d shots, %d/%d clips clean (%.1fs)\n",
		convSummary.Shots, convSummary.Feasible, convSummary.Shapes, time.Since(t0).Seconds())

	t0 = time.Now()
	ours := maskfrac.FractureBatch(context.Background(), targets, params, maskfrac.MethodMBF, nil, 0, nil)
	oursSummary := maskfrac.Summarize(ours)
	fmt.Printf("model-based:       %d shots, %d/%d clips clean (%.1fs)\n\n",
		oursSummary.Shots, oursSummary.Feasible, oursSummary.Shapes, time.Since(t0).Seconds())

	// extrapolate the clip-level reduction to a full critical layer
	const shapesPerMask = 100_000_000
	per := int64(shapesPerMask / len(targets))
	model := writecost.Default()
	fmt.Println(model.Summary("full mask layer",
		int64(convSummary.Shots)*per, int64(oursSummary.Shots)*per))
}

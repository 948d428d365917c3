// Command fracture runs model-based mask fracturing on a shape file.
//
// Usage:
//
//	fracture -in shapes.msk [-shape NAME] [-method NAME]
//	         [-out shots.txt] [-svg out.svg] [-sigma 6.25] [-gamma 2] [-lmin 8]
//	         [-workers N] [-v] [-trace]
//	fracture -multi -in shapes.msk [-workers N]
//	fracture -batch -in shapes.msk [-workers N] [-cache 4096]
//	fracture -server http://host:8337 [-multi] [-trace] ...
//	fracture -plan -server http://host:8337 [-plan-slots N] [-plan-topk K] [-plan-load-ms MS]
//
// -server sends the instance to a running fracd instead of solving
// in-process; with -trace the caller's trace ID propagates to the
// daemon as a traceparent header, the daemon returns its span tree in
// the response, and the printed waterfall shows the local request span
// with the remote solver phases stitched underneath. The same trace is
// retained on the daemon under GET /debug/traces/{id}.
//
// Without -in it fractures the first built-in ILT benchmark clip (or,
// with -batch, the whole built-in suite; with -multi, a built-in SRAF
// cluster). Batch mode fractures every shape in the file concurrently
// through the content-addressed shape cache, so congruent repeated
// shapes run the solver once. Multi mode solves all shapes of the file
// as ONE instance sharing the dose budget: the decompose–solve–stitch
// engine clusters them into proximity-independent regions and solves
// up to -workers regions concurrently, with a result byte-identical to
// the sequential run.
//
// -plan asks the daemon to plan a character-projection stencil from the
// placement frequencies its shape cache has accumulated (POST /plan)
// and prints the plan with its modeled write-time savings.
//
// -trace records the solver's phase spans and prints the span tree —
// including the engine's plan/region/stitch phases, one span per
// independent region — and a per-phase timing table after the solve;
// -v adds problem detail (pixel counts, shot bounds, evaluation time).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"maskfrac"
	"maskfrac/internal/geom"
	"maskfrac/internal/maskio"
	"maskfrac/internal/svg"
	"maskfrac/internal/telemetry"
)

func main() {
	var (
		in      = flag.String("in", "", "input .msk shape file (default: built-in ILT-1)")
		shape   = flag.String("shape", "", "shape name to fracture (default: first in file)")
		method  = flag.String("method", "mbf", "fracturing method: "+methodList())
		out     = flag.String("out", "", "write the shot list to this file")
		svgOut  = flag.String("svg", "", "render target + shots to this SVG file")
		sigma   = flag.Float64("sigma", 6.25, "e-beam blur sigma in nm")
		gamma   = flag.Float64("gamma", 2, "CD tolerance in nm")
		lmin    = flag.Float64("lmin", 8, "minimum shot size in nm")
		batch   = flag.Bool("batch", false, "fracture every shape in the file concurrently")
		multi   = flag.Bool("multi", false, "solve all shapes in the file as one multi-shape instance (default: built-in SRAF cluster)")
		workers = flag.Int("workers", 0, "concurrent batch shapes / independent regions / helpers inside one solve (0 = GOMAXPROCS)")
		cacheN  = flag.Int("cache", 4096, "batch shape cache entry bound (0 disables)")
		verbose = flag.Bool("v", false, "print problem detail (pixel counts, bounds, eval time)")
		trace   = flag.Bool("trace", false, "record solver phase spans; print the span tree and per-phase timings")
		server  = flag.String("server", "", "fracture on a running fracd at this base URL instead of in-process")

		plan      = flag.Bool("plan", false, "plan a character-projection stencil from the fracd's cache statistics (requires -server)")
		planSlots = flag.Int("plan-slots", 0, "stencil character slot budget (0 = server default)")
		planTopK  = flag.Int("plan-topk", 0, "congruence classes mined as plan candidates (0 = server default)")
		planLoad  = flag.Float64("plan-load-ms", -1, "stencil load overhead in ms (-1 = server default, 0 = none)")
	)
	flag.Parse()

	params := maskfrac.DefaultParams()
	params.Sigma = *sigma
	params.Gamma = *gamma
	params.Lmin = *lmin

	if *plan {
		if *server == "" {
			fatal(fmt.Errorf("-plan needs a running daemon's cache statistics; set -server"))
		}
		if err := runPlan(*server, *planSlots, *planTopK, *planLoad, *trace); err != nil {
			fatal(err)
		}
		return
	}

	if *batch {
		if *server != "" {
			fatal(fmt.Errorf("-batch does not combine with -server; use loadgen for remote batches"))
		}
		if err := runBatch(*in, params, maskfrac.Method(*method), *workers, *cacheN); err != nil {
			fatal(err)
		}
		return
	}

	var (
		targets []maskfrac.Polygon
		name    string
	)
	if *multi {
		var err error
		targets, name, err = loadMulti(*in)
		if err != nil {
			fatal(err)
		}
	} else {
		target, n, err := loadTarget(*in, *shape)
		if err != nil {
			fatal(err)
		}
		targets, name = []maskfrac.Polygon{target}, n
	}

	if *server != "" {
		if err := runRemote(*server, targets, name, maskfrac.Method(*method),
			*multi, params, *workers, *out, *svgOut, *verbose, *trace); err != nil {
			fatal(err)
		}
		return
	}

	var prob *maskfrac.Problem
	{
		var err error
		if *multi {
			prob, err = maskfrac.NewMultiProblem(targets, params)
		} else {
			prob, err = maskfrac.NewProblem(targets[0], params)
		}
		if err != nil {
			fatal(err)
		}
	}
	ctx := context.Background()
	var root *telemetry.Span
	if *trace {
		ctx, root = telemetry.WithTrace(ctx, "fracture "+name)
	}
	opt := &maskfrac.Options{Workers: *workers}
	res, err := prob.FractureCtx(ctx, maskfrac.Method(*method), opt)
	if err != nil {
		fatal(err)
	}
	root.End()
	vertices := 0
	for _, t := range targets {
		vertices += len(t)
	}
	lb, ub := prob.Bounds()
	fmt.Printf("shape %s: %d shapes, %d vertices, bounds LB=%d UB=%d\n", name, len(targets), vertices, lb, ub)
	fmt.Printf("method %s: %d shots, %d regions, %d failing pixels (on=%d off=%d), %.3fs\n",
		res.Method, res.ShotCount(), res.Regions, res.FailingPixels(), res.FailOn, res.FailOff, res.Runtime.Seconds())
	if res.Stage != nil {
		fmt.Printf("stage: %d->%d vertices, %d corners, %d colors, Lth=%.1fnm, %d iterations\n",
			res.Stage.VerticesIn, res.Stage.VerticesRDP, res.Stage.Corners,
			res.Stage.Colors, res.Stage.Lth, res.Stage.Iterations)
	}
	if *verbose {
		on, off := prob.PixelCounts()
		fmt.Printf("grid: %d interior pixels, %d exterior pixels, Lth=%.2fnm\n",
			on, off, prob.Lth())
		fmt.Printf("timing: solve %.3fs, evaluate %.3fs\n",
			res.Runtime.Seconds(), res.EvalTime.Seconds())
	}
	if root != nil {
		fmt.Println("\ntrace:")
		root.WriteTree(os.Stdout)
		fmt.Println()
		telemetry.WritePhaseTable(os.Stdout, root)
	}
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := maskio.WriteShots(f, res.Shots); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %d shots to %s\n", res.ShotCount(), *out)
	}
	if *svgOut != "" {
		if err := render(*svgOut, targets, res.Shots); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", *svgOut)
	}
}

// runBatch fractures every shape of the file (or the built-in suite)
// concurrently through the shape cache and prints per-shape lines plus
// totals and cache counters.
func runBatch(path string, params maskfrac.Params, method maskfrac.Method, workers, cacheEntries int) error {
	shapes, err := loadAll(path)
	if err != nil {
		return err
	}
	var cache *maskfrac.ShapeCache
	if cacheEntries > 0 {
		cache = maskfrac.NewShapeCache(cacheEntries)
	}
	items := maskfrac.FractureBatchCached(context.Background(), polys(shapes), params, method, nil, workers, cache)
	for i, it := range items {
		name := shapes[i].Name
		if it.Err != nil {
			fmt.Printf("%-12s ERROR %v\n", name, it.Err)
			continue
		}
		hit := ""
		if it.CacheHit {
			hit = " (cache hit)"
		}
		fmt.Printf("%-12s %4d shots, %3d failing, %7.3fs solve%s\n",
			name, it.Result.ShotCount(), it.Result.FailingPixels(), it.Result.Runtime.Seconds(), hit)
	}
	s := maskfrac.Summarize(items)
	fmt.Printf("batch: %d shapes, %d errors, %d shots, %d feasible, %d cache hits\n",
		s.Shapes, s.Errors, s.Shots, s.Feasible, s.CacheHits)
	if cache != nil {
		cs := cache.Stats()
		fmt.Printf("cache: %d hits, %d misses, %d evictions, %d entries (~%d KiB)\n",
			cs.Hits, cs.Misses, cs.Evictions, cs.Entries, cs.Bytes/1024)
	}
	return nil
}

// loadAll reads every shape of the file, falling back to the built-in
// ILT suite.
func loadAll(path string) ([]maskio.NamedShape, error) {
	if path == "" {
		suite := maskfrac.ILTSuite()
		shapes := make([]maskio.NamedShape, len(suite))
		for i, b := range suite {
			shapes[i] = maskio.NamedShape{Name: b.Name, Polygon: b.Target}
		}
		return shapes, nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return maskio.ReadShapes(f)
}

// polys strips the names off a shape list.
func polys(shapes []maskio.NamedShape) []maskfrac.Polygon {
	out := make([]maskfrac.Polygon, len(shapes))
	for i, s := range shapes {
		out[i] = s.Polygon
	}
	return out
}

// loadMulti reads every shape of the file as one multi-shape instance,
// falling back to a built-in SRAF cluster benchmark.
func loadMulti(path string) ([]maskfrac.Polygon, string, error) {
	if path == "" {
		return maskfrac.SRAFCluster(7, 4), "sraf-cluster", nil
	}
	shapes, err := loadAll(path)
	if err != nil {
		return nil, "", err
	}
	if len(shapes) == 0 {
		return nil, "", fmt.Errorf("no shapes in %s", path)
	}
	return polys(shapes), shapes[0].Name + "+", nil
}

// loadTarget reads the requested shape, falling back to the first
// built-in benchmark clip.
func loadTarget(path, name string) (maskfrac.Polygon, string, error) {
	if path == "" {
		suite := maskfrac.ILTSuite()
		return suite[0].Target, suite[0].Name, nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, "", err
	}
	defer f.Close()
	shapes, err := maskio.ReadShapes(f)
	if err != nil {
		return nil, "", err
	}
	if len(shapes) == 0 {
		return nil, "", fmt.Errorf("no shapes in %s", path)
	}
	if name == "" {
		return shapes[0].Polygon, shapes[0].Name, nil
	}
	for _, s := range shapes {
		if s.Name == name {
			return s.Polygon, s.Name, nil
		}
	}
	return nil, "", fmt.Errorf("shape %q not found in %s", name, path)
}

// render writes the targets and shots to an SVG file.
func render(path string, targets []maskfrac.Polygon, shots []maskfrac.Shot) error {
	view := targets[0].Bounds()
	for _, t := range targets[1:] {
		view = view.Union(t.Bounds())
	}
	for _, s := range shots {
		view = view.Union(geom.Rect(s))
	}
	c := svg.NewCanvas(view, 4)
	for _, t := range targets {
		c.Polygon(t, "#dddddd", "#333333", 0.4)
	}
	for _, s := range shots {
		c.Rect(s, "rgba(30,90,200,0.25)", "#1a5ac8", 0.3)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	_, err = c.WriteTo(f)
	return err
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fracture:", err)
	os.Exit(1)
}

// methodList names every registered fracturing method, comma separated.
func methodList() string {
	var names []string
	for _, m := range maskfrac.Methods() {
		names = append(names, string(m))
	}
	return strings.Join(names, ", ")
}

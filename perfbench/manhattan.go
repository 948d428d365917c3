package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	"maskfrac"
	"maskfrac/internal/cover"
	"maskfrac/internal/telemetry"
)

// manhattanOp is one manhattan-mbfl op: sample the whole tile as one
// multi-target problem, then plan, solve (mbf-l on the given number of
// workers) and stitch its regions.
func manhattanOp(ctx context.Context, targets []maskfrac.Polygon, params maskfrac.Params, workers int) (*maskfrac.Result, time.Duration, error) {
	w := startWatch()
	_, span := telemetry.StartSpan(ctx, "bench.sample")
	prob, err := maskfrac.NewMultiProblem(targets, params)
	span.End()
	if err != nil {
		return nil, w.elapsed(), err
	}
	res, err := prob.FractureCtx(ctx, maskfrac.MethodMBFL, &maskfrac.Options{Workers: workers})
	return res, w.elapsed(), err
}

// checkManhattan checks the region count and that the L-pairs are well
// formed: i < j, in range, no shot in two pairs, and every pair's union
// an L.
func checkManhattan(res *maskfrac.Result, regions int) error {
	if res.Regions != regions {
		return fmt.Errorf("engine solved %d regions, the tile has %d groups", res.Regions, regions)
	}
	used := make(map[int]bool, 2*len(res.LPairs))
	for _, pr := range res.LPairs {
		i, j := pr[0], pr[1]
		if i < 0 || i >= j || j >= len(res.Shots) {
			return fmt.Errorf("malformed L-pair %v over %d shots", pr, len(res.Shots))
		}
		if used[i] || used[j] {
			return fmt.Errorf("L-pair %v reuses a paired shot", pr)
		}
		used[i], used[j] = true, true
		if !cover.UnionIsLShot(res.Shots[i], res.Shots[j]) {
			return fmt.Errorf("L-pair %v: %v ∪ %v is not an L", pr, res.Shots[i], res.Shots[j])
		}
	}
	return nil
}

// manhattanOpSeconds is about the length of one op: a run of S
// seconds makes ceil(S/manhattanOpSeconds) ops, at least two, so every
// run has the same sample count.
const manhattanOpSeconds = 3

// manhattanWarmups is the number of warm-up ops. They run on one worker,
// so the setup is a sum of region solves, not the makespan of two
// workers stealing uneven regions from each other; the engine's stitch
// does not depend on the worker count, so the answer is the same.
const manhattanWarmups = 2

// runManhattan is the manhattan-mbfl workload: one closed-loop client
// fracturing a tile of rectilinear and SRAF groups with L-shots.
func runManhattan(ctx context.Context, cfg config) (*outcome, error) {
	groups := ManhattanTile(cfg.seed)
	targets := ManhattanTargets(groups)
	params := maskfrac.DefaultParams()

	// setup: manhattanWarmups sequential untimed ops; the first fixes
	// the expected answer, the others must reproduce it
	workers := runtime.GOMAXPROCS(0) // what Workers: 0 uses
	out := &outcome{phaseOK: true, speed: speedLog{threads: workers}}
	out.speed.probe()
	var ref quality
	for w := 0; w < manhattanWarmups; w++ {
		res, _, err := manhattanOp(ctx, targets, params, 1)
		if err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		if err := checkManhattan(res, len(groups)); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		var q quality
		q.addResult(res)
		if w == 0 {
			ref = q
		} else if q != ref {
			return nil, fmt.Errorf("warm-up: %+v differs from the first warm-up's %+v", q, ref)
		}
		out.speed.probe()
	}
	setup := cfg.start.elapsedExcept(out.speed.spent)

	// runOps runs n timed ops on the default workers, checking every
	// output against the warm-up answer and probing the machine's speed
	// after every op, and returns their latencies.
	runOps := func(n int, traced bool, spans *solverSpans, speed *speedLog) []time.Duration {
		var ds []time.Duration
		for len(ds) < n {
			opCtx, root := ctx, (*telemetry.Span)(nil)
			if traced {
				opCtx, root = telemetry.WithTrace(ctx, "bench.op")
			}
			res, d, err := manhattanOp(opCtx, targets, params, 0)
			root.End()
			speed.probe()
			out.attempted++
			ds = append(ds, d)
			if err == nil {
				err = checkManhattan(res, len(groups))
			}
			if err == nil {
				var q quality
				q.addResult(res)
				if q != ref {
					err = fmt.Errorf("%+v differs from the warm-up answer %+v", q, ref)
				}
			}
			if err != nil {
				out.failed++
				fmt.Fprintln(os.Stderr, "op failed:", err)
				continue
			}
			if traced {
				spans.add(root)
			}
		}
		return ds
	}

	// opsRate is ops completed per reference second of timed ops
	opsRate := func(ds []time.Duration, speed speedLog) float64 {
		return float64(len(ds)) / sum(ds).Seconds() / speed.scale()
	}

	ops := max(2, int(math.Ceil(cfg.seconds.Seconds()/manhattanOpSeconds)))
	if !cfg.trace {
		ds := runOps(ops, false, nil, &out.speed)
		k := out.speed.scale()
		out.endToEnd = map[string]float64{
			"setup_s":    setup.Seconds() * k,
			"ops_per_s":  opsRate(ds, out.speed),
			"p50_ms":     quantileMS(ds, 0.50) * k,
			"p99_ms":     quantileMS(ds, 0.99) * k,
			"shots":      float64(ref.shots),
			"flashes":    float64(ref.flashes),
			"cd_fail_px": float64(ref.failPx),
		}
		out.note = fmt.Sprintf("ops %d (%d regions each); p50/p99 interpolated over %d samples; wall-clock setup %.3f s, median op %.0f ms",
			len(ds), len(groups), len(ds), setup.Seconds(), median(ds).Seconds()*1000)
		return out, nil
	}

	var spans solverSpans
	plainSpeed, tracedSpeed := speedLog{threads: workers}, speedLog{threads: workers}
	plain := runOps(ops/2, false, nil, &plainSpeed)
	before := readCounters()
	traced := runOps(ops-ops/2, true, &spans, &tracedSpeed)
	out.layers = make(map[string]float64)
	before.layerMetrics(out.layers, float64(len(traced)))
	spans.metrics(out.layers, 1, workers)
	out.layers["telemetry.trace_overhead"] = 1 - opsRate(traced, tracedSpeed)/opsRate(plain, plainSpeed)
	out.note = fmt.Sprintf("untraced ops %d, traced ops %d", len(plain), len(traced))
	return out, nil
}

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
	"maskfrac/internal/fracture/engine"
	"maskfrac/internal/telemetry"
)

// quality is the exact output summary of one op or one pass.
type quality struct {
	shots, flashes, failPx int
}

func (q *quality) addResult(r *maskfrac.Result) {
	q.shots += r.ShotCount()
	q.flashes += r.FlashCount()
	q.failPx += r.FailingPixels()
}

// counters snapshots the process-wide solver counters.
type counters struct {
	eval   cover.EvalEffort
	arena  cover.ArenaStats
	steals int64
}

func readCounters() counters {
	return counters{eval: cover.EvalCounters(), arena: cover.ArenaCounters(), steals: engine.StealCount()}
}

// layerMetrics writes the counter rows of the per-layer table for the
// span since c, per pass of passes.
func (c counters) layerMetrics(m map[string]float64, passes float64) {
	now := readCounters()
	m["cover.mutations"] = ratio(float64(now.eval.Mutations-c.eval.Mutations), passes)
	m["cover.px_mutated"] = ratio(float64(now.eval.PixelsMutated-c.eval.PixelsMutated), passes)
	m["cover.px_scored"] = ratio(float64(now.eval.PixelsScored-c.eval.PixelsScored), passes)
	hits := float64(now.arena.Hits - c.arena.Hits)
	m["cover.arena_hit_ratio"] = ratio(hits, hits+float64(now.arena.Misses-c.arena.Misses))
	m["engine.steals"] = ratio(float64(now.steals-c.steals), passes)
}

// iltOp is one ilt-mbf op: sample, solve and score one clip through the
// uncached facade path.
func iltOp(ctx context.Context, clip Clip, params maskfrac.Params) (*maskfrac.Result, time.Duration, error) {
	w := startWatch()
	res, _, err := maskfrac.FractureCached(ctx, clip.Target, params, maskfrac.MethodMBF, nil, nil)
	return res, w.elapsed(), err
}

// checkILT re-scores a returned shot list: the independent evaluation
// must agree with the reported violations and every shot must respect
// the minimum shot size.
func checkILT(clip Clip, params maskfrac.Params, res *maskfrac.Result) error {
	prob, err := maskfrac.NewProblem(clip.Target, params)
	if err != nil {
		return err
	}
	on, off, _ := prob.Evaluate(res.Shots)
	if on != res.FailOn || off != res.FailOff {
		return fmt.Errorf("%s: re-scored %d/%d failing pixels, reported %d/%d", clip.Name, on, off, res.FailOn, res.FailOff)
	}
	const eps = 1e-9
	for i, s := range res.Shots {
		if s.W() < params.Lmin-eps || s.H() < params.Lmin-eps {
			return fmt.Errorf("%s: shot %d is %gx%g, below Lmin %g", clip.Name, i, s.W(), s.H(), params.Lmin)
		}
	}
	return nil
}

// iltPassSeconds is about the length of one pass at reference speed: a
// run of S seconds makes ceil(S/iltPassSeconds) passes, about S seconds
// of work or a little more. A fixed amount of work per run keeps the
// sample count, and so the percentiles, the same in every run whatever
// the machine's speed; three passes at 20 s make each clip's median a
// true median.
const iltPassSeconds = 8

// runILT is the ilt-mbf workload: one closed-loop client solving the
// Table 2 clips with MBF, every call a cache miss.
func runILT(ctx context.Context, cfg config) (*outcome, error) {
	clips := ILTClips(cfg.seed)
	params := maskfrac.DefaultParams()

	// setup: one sequential warm-up pass, which also fixes the expected
	// answer of every clip
	ref := make([]quality, len(clips))
	var pass quality
	out := &outcome{phaseOK: true, speed: speedLog{threads: 1}}
	out.speed.probe()
	for i, c := range clips {
		res, _, err := iltOp(ctx, c, params)
		if err != nil {
			return nil, fmt.Errorf("warm-up %s: %w", c.Name, err)
		}
		if err := checkILT(c, params, res); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		ref[i].addResult(res)
		pass.addResult(res)
		out.speed.probe()
	}
	setup := cfg.start.elapsedExcept(out.speed.spent)

	// runPasses runs n passes, checking every output and probing the
	// machine's speed after every op, and returns each clip's latencies.
	runPasses := func(n int, traced bool, spans *solverSpans, speed *speedLog) [][]time.Duration {
		perClip := make([][]time.Duration, len(clips))
		for p := 0; p < n; p++ {
			for i, c := range clips {
				opCtx, root := ctx, (*telemetry.Span)(nil)
				if traced {
					opCtx, root = telemetry.WithTrace(ctx, "bench.op")
				}
				res, d, err := iltOp(opCtx, c, params)
				root.End()
				speed.probe()
				out.attempted++
				perClip[i] = append(perClip[i], d)
				if err == nil {
					err = checkILT(c, params, res)
				}
				if err == nil {
					var q quality
					q.addResult(res)
					if q != ref[i] {
						err = fmt.Errorf("%s: %+v differs from the warm-up answer %+v", c.Name, q, ref[i])
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
		}
		return perClip
	}
	// opsRate is ops completed per reference second of timed ops
	opsRate := func(perClip [][]time.Duration, speed speedLog) float64 {
		var n int
		var total time.Duration
		for _, ds := range perClip {
			n += len(ds)
			total += sum(ds)
		}
		return float64(n) / total.Seconds() / speed.scale()
	}

	passes := int(math.Ceil(cfg.seconds.Seconds() / iltPassSeconds))
	if !cfg.trace {
		perClip := runPasses(passes, false, nil, &out.speed)
		// a clip's latency is its median op: the percentiles range over
		// the five clips of a pass, and one op slowed by the machine
		// does not move them
		clipMedians := make([]time.Duration, len(clips))
		for i, ds := range perClip {
			clipMedians[i] = median(ds)
		}
		k := out.speed.scale()
		out.endToEnd = map[string]float64{
			"setup_s":    setup.Seconds() * k,
			"ops_per_s":  opsRate(perClip, out.speed),
			"p50_ms":     quantileMS(clipMedians, 0.50) * k,
			"p99_ms":     quantileMS(clipMedians, 0.99) * k,
			"shots":      float64(pass.shots),
			"flashes":    float64(pass.flashes),
			"cd_fail_px": float64(pass.failPx),
		}
		note := fmt.Sprintf("ops %d (%d passes); p50/p99 interpolated over the %d clips' medians of %d ops each; wall-clock setup %.3f s; wall-clock median ms per clip:",
			passes*len(clips), passes, len(clips), passes, setup.Seconds())
		for i, c := range clips {
			note += fmt.Sprintf(" %s %.0f", c.Name, median(perClip[i]).Seconds()*1000)
		}
		out.note = note
		return out, nil
	}

	// traced run: half the budget untraced, half traced, for the
	// overhead figure; the layer rows come from the traced half
	var spans solverSpans
	plainSpeed, tracedSpeed := speedLog{threads: 1}, speedLog{threads: 1}
	plainClips := runPasses(max(1, passes/2), false, nil, &plainSpeed)
	before := readCounters()
	tracedPasses := max(1, passes-passes/2)
	tracedClips := runPasses(tracedPasses, true, &spans, &tracedSpeed)
	out.layers = make(map[string]float64)
	before.layerMetrics(out.layers, float64(tracedPasses))
	spans.metrics(out.layers, len(clips), runtime.GOMAXPROCS(0))
	out.layers["telemetry.trace_overhead"] = 1 - opsRate(tracedClips, tracedSpeed)/opsRate(plainClips, plainSpeed)
	out.note = fmt.Sprintf("untraced ops %d, traced ops %d", max(1, passes/2)*len(clips), tracedPasses*len(clips))
	return out, nil
}

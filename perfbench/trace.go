package main

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"time"

	"maskfrac/internal/telemetry"
)

// interval is a closed-open time range [from, to).
type interval struct{ from, to time.Time }

func spanInterval(s *telemetry.Span) interval {
	return interval{s.Start, s.Start.Add(s.Duration())}
}

// selfTime is a span's duration minus the part of it its children
// cover: the time the layer spent in its own code. Overlapping children
// count once, and the parts of a child outside the span are ignored.
func selfTime(s *telemetry.Span) time.Duration {
	within := spanInterval(s)
	var ivs []interval
	for _, c := range s.Children() {
		iv := spanInterval(c)
		if iv.from.Before(within.from) {
			iv.from = within.from
		}
		if iv.to.After(within.to) {
			iv.to = within.to
		}
		if iv.to.After(iv.from) {
			ivs = append(ivs, iv)
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].from.Before(ivs[j].from) })
	self := within.to.Sub(within.from)
	var cur interval
	for i, iv := range ivs {
		switch {
		case i == 0:
			cur = iv
		case iv.from.After(cur.to):
			self -= cur.to.Sub(cur.from)
			cur = iv
		case iv.to.After(cur.to):
			cur.to = iv.to
		}
	}
	if len(ivs) > 0 {
		self -= cur.to.Sub(cur.from)
	}
	return self
}

// walkSpans calls fn on s and every descendant, depth first.
func walkSpans(s *telemetry.Span, fn func(s *telemetry.Span)) {
	fn(s)
	for _, c := range s.Children() {
		walkSpans(c, fn)
	}
}

// attrInt reads an integer attribute; spans adopted from a remote
// node carry attributes as strings. Missing attributes read 0.
func attrInt(s *telemetry.Span, key string) int64 {
	for _, a := range s.Attrs() {
		if a.Key == key {
			n, _ := strconv.ParseInt(fmt.Sprint(a.Value), 10, 64)
			return n
		}
	}
	return 0
}

// solverSpans sums the solver-layer spans of traced ops: the cover,
// mbf and engine rows of the per-layer table.
type solverSpans struct {
	ops int

	sample, evaluate                    time.Duration
	approximate, refine, polish, clean  time.Duration
	lshots                              time.Duration
	refineIters, refineEvals, refineMut int64
	cleanupTrials, cleanupKept          int64
	lCandidates, lPairs                 int64
	regions                             int64
	regionBusy, solves                  time.Duration
}

// add folds one op's span tree into the sums.
func (a *solverSpans) add(root *telemetry.Span) {
	a.ops++
	walkSpans(root, func(s *telemetry.Span) {
		a.addCleanup(s.Children())
		d := s.Duration()
		switch s.Name {
		case "sample", "bench.sample":
			a.sample += d
		case "evaluate":
			a.evaluate += d
		case "mbf.approximate":
			a.approximate += d
		case "mbf.refine":
			a.refine += d
			a.refineIters += attrInt(s, "iterations")
			a.refineEvals += attrInt(s, "evals")
			a.refineMut += attrInt(s, "mutations")
		case "mbf.polish":
			a.polish += d
		case "mbf.cleanup":
			a.clean += d
		case "mbf.lshots":
			a.lshots += d
			a.lCandidates += attrInt(s, "candidates")
			a.lPairs += attrInt(s, "pairs")
		case "plan":
			a.regions += attrInt(s, "regions")
		case "solve":
			// a single-region solve runs on the original problem and
			// records no region span: the whole solve is its one region
			busy, regions := time.Duration(0), 0
			for _, c := range s.Children() {
				if c.Name == "region" {
					busy += c.Duration()
					regions++
				}
			}
			if regions == 0 {
				busy = d
			}
			a.regionBusy += busy
			a.solves += d
		}
	})
}

// addCleanup counts the removal trials of one MBF solve, given the
// phase spans of the solve (the children of its region or solve span).
// Each trial is a fixup.edgeadjust child of mbf.cleanup; it is kept
// when its repaired violation count is at most the cleanup's baseline,
// which is what refine and polish left: the lower of mbf.refine's
// fail and the fail of each of polish's edge adjustments.
func (a *solverSpans) addCleanup(phases []*telemetry.Span) {
	var cleanup *telemetry.Span
	base := int64(math.MaxInt64)
	for _, c := range phases {
		switch c.Name {
		case "mbf.cleanup":
			cleanup = c
		case "mbf.refine":
			base = min(base, attrInt(c, "fail"))
		case "mbf.polish":
			for _, adj := range c.Children() {
				base = min(base, attrInt(adj, "fail"))
			}
		}
	}
	if cleanup == nil {
		return
	}
	for _, trial := range cleanup.Children() {
		if trial.Name != "fixup.edgeadjust" {
			continue
		}
		a.cleanupTrials++
		if attrInt(trial, "fail") <= base {
			a.cleanupKept++
		}
	}
}

// metrics writes the solver rows of the per-layer table. Times and
// counts are per pass of passOps ops; workers is the engine's region
// concurrency.
func (a *solverSpans) metrics(m map[string]float64, passOps, workers int) {
	passes := float64(a.ops) / float64(passOps)
	perPass := func(v float64) float64 { return ratio(v, passes) }
	m["cover.sample_ms"] = ratio(a.sample.Seconds()*1000, float64(a.ops))
	m["cover.evaluate_ms"] = ratio(a.evaluate.Seconds()*1000, float64(a.ops))
	m["mbf.approximate_s"] = perPass(a.approximate.Seconds())
	m["mbf.refine_s"] = perPass(a.refine.Seconds())
	m["mbf.polish_s"] = perPass(a.polish.Seconds())
	m["mbf.cleanup_s"] = perPass(a.clean.Seconds())
	m["mbf.refine_iters"] = perPass(float64(a.refineIters))
	m["mbf.refine_accept_ratio"] = ratio(float64(a.refineMut), float64(a.refineEvals))
	m["mbf.cleanup_trials"] = perPass(float64(a.cleanupTrials))
	m["mbf.cleanup_yield"] = ratio(float64(a.cleanupKept), float64(a.cleanupTrials))
	m["mbf.lshots_s"] = perPass(a.lshots.Seconds())
	m["mbf.lshot_pair_yield"] = ratio(float64(a.lPairs), float64(a.lCandidates))
	m["engine.regions"] = perPass(float64(a.regions))
	m["engine.region_busy_s"] = perPass(a.regionBusy.Seconds())
	m["engine.parallel_eff"] = ratio(a.regionBusy.Seconds(), float64(workers)*a.solves.Seconds())
}

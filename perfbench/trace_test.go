package main

import (
	"testing"
	"time"

	"maskfrac/internal/telemetry"
)

const ms = int64(time.Millisecond)

// span builds an ended span tree from its wire form: start and duration
// in milliseconds from t0.
func wire(name string, start, dur int64, attrs []telemetry.AttrWire, children ...*telemetry.SpanWire) *telemetry.SpanWire {
	return &telemetry.SpanWire{Name: name, StartNS: 1e15 + start*ms, DurNS: dur * ms, Attrs: attrs, Children: children}
}

func TestSelfTime(t *testing.T) {
	// root 0–100 ms; children 10–40 and 30–60 overlap, 12–17 lies inside
	// the first, 90–120 overruns the root: they cover 10–60 and 90–100,
	// 60 ms in all
	root := wire("root", 0, 100, nil,
		wire("a", 10, 30, nil, wire("a1", 12, 5, nil)),
		wire("b", 30, 30, nil),
		wire("inner", 12, 5, nil),
		wire("c", 90, 30, nil),
	).Span()
	if got, want := selfTime(root), 40*time.Millisecond; got != want {
		t.Errorf("root self time %v, want %v", got, want)
	}
	a := root.Children()[0]
	if got, want := selfTime(a), 25*time.Millisecond; got != want {
		t.Errorf("a self time %v, want %v", got, want)
	}
	if got, want := selfTime(root.Children()[1]), 30*time.Millisecond; got != want {
		t.Errorf("leaf self time %v, want its duration %v", got, want)
	}
}

func attr(k, v string) telemetry.AttrWire { return telemetry.AttrWire{K: k, V: v} }

func TestSolverSpans(t *testing.T) {
	// one traced op: two regions under solve, each an MBF solve whose
	// refine left 4 failing pixels and whose polish got down to 1, then
	// three cleanup trials of which the one repaired to 1 is kept, and an
	// L-shot pass; attributes arrive as strings, as they do from a
	// remote node
	region := func(start int64) *telemetry.SpanWire {
		return wire("region", start, 40, nil,
			wire("mbf.approximate", start, 2, nil),
			wire("mbf.refine", start+2, 10, []telemetry.AttrWire{attr("iterations", "7"), attr("evals", "40"), attr("mutations", "10"), attr("fail", "4")}),
			wire("mbf.polish", start+12, 3, nil,
				wire("fixup.edgeadjust", start+12, 1, []telemetry.AttrWire{attr("fail", "2")}),
				wire("fixup.edgeadjust", start+13, 2, []telemetry.AttrWire{attr("fail", "1")}),
			),
			wire("mbf.cleanup", start+15, 20, nil,
				wire("fixup.edgeadjust", start+15, 5, []telemetry.AttrWire{attr("fail", "3")}),
				wire("fixup.edgeadjust", start+20, 5, []telemetry.AttrWire{attr("fail", "1")}),
				wire("fixup.edgeadjust", start+25, 5, []telemetry.AttrWire{attr("fail", "2")}),
			),
			wire("mbf.lshots", start+35, 5, []telemetry.AttrWire{attr("candidates", "4"), attr("pairs", "3")}),
		)
	}
	root := wire("bench.op", 0, 100, nil,
		wire("bench.sample", 0, 10, nil),
		wire("solve", 10, 80, nil,
			wire("plan", 10, 1, []telemetry.AttrWire{attr("regions", "2")}),
			region(11), region(11),
		),
		wire("evaluate", 90, 10, nil),
	).Span()
	var a solverSpans
	a.add(root)
	m := map[string]float64{}
	a.metrics(m, 1, 2)
	want := map[string]float64{
		"cover.sample_ms":         10,
		"cover.evaluate_ms":       10,
		"mbf.approximate_s":       0.004,
		"mbf.refine_s":            0.020,
		"mbf.polish_s":            0.006,
		"mbf.cleanup_s":           0.040,
		"mbf.refine_iters":        14,
		"mbf.refine_accept_ratio": 0.25,
		"mbf.cleanup_trials":      6, // polish's edge adjustment is not a cleanup trial
		"mbf.lshots_s":            0.010,
		"mbf.lshot_pair_yield":    0.75,
		"engine.regions":          2,
		"engine.region_busy_s":    0.080,
		"engine.parallel_eff":     0.5, // 80 ms busy over 2 workers × 80 ms
	}
	for k, v := range want {
		if got := m[k]; got < v-1e-9 || got > v+1e-9 {
			t.Errorf("%s = %v, want %v", k, got, v)
		}
	}
	if got, want := m["mbf.cleanup_yield"], 2.0/6; got < want-1e-9 || got > want+1e-9 {
		t.Errorf("mbf.cleanup_yield = %v, want %v", got, want)
	}

	// a single-region solve has no region span: it is one busy region
	var single solverSpans
	single.add(wire("bench.op", 0, 50, nil, wire("solve", 0, 40, nil, wire("plan", 0, 1, []telemetry.AttrWire{attr("regions", "1")}))).Span())
	m = map[string]float64{}
	single.metrics(m, 1, 2)
	if got := m["engine.region_busy_s"]; got < 0.040-1e-9 || got > 0.040+1e-9 {
		t.Errorf("single-region busy %v s, want the solve's 0.040", got)
	}
	if got := m["engine.parallel_eff"]; got < 0.5-1e-9 || got > 0.5+1e-9 {
		t.Errorf("single-region efficiency %v on 2 workers, want 0.5", got)
	}
}

func TestQuantileMS(t *testing.T) {
	// 100..1 ms, unsorted: interpolated between order statistics
	var ds []time.Duration
	for i := 100; i >= 1; i-- {
		ds = append(ds, time.Duration(i)*time.Millisecond)
	}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 50.5}, {0.99, 99.01}, {1, 100}} {
		if got := quantileMS(ds, c.q); got < c.want-1e-6 || got > c.want+1e-6 {
			t.Errorf("q%.2f = %v ms, want %v", c.q, got, c.want)
		}
	}
	if got := quantileMS([]time.Duration{7 * time.Millisecond}, 0.99); got != 7 {
		t.Errorf("one sample: q0.99 = %v ms, want 7", got)
	}
	if got := quantileMS(nil, 0.5); got != 0 {
		t.Errorf("no samples: %v, want 0", got)
	}
}

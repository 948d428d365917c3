package telemetry

import (
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// TestHistogramBucketBoundaries pins the Prometheus cumulative-bucket
// convention: bucket le=U counts observations v <= U (inclusive), and
// the +Inf bucket equals the total count.
func TestHistogramBucketBoundaries(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", "test", []float64{1, 2.5, 5})
	for _, v := range []float64{0.5, 1, 1.0000001, 2.5, 5, 7, 100} {
		h.Observe(v)
	}
	got := h.BucketCounts()
	// v <= 1: {0.5, 1} → 2; v <= 2.5 adds {1.0000001, 2.5} → 4;
	// v <= 5 adds {5} → 5; +Inf adds {7, 100} → 7
	want := []uint64{2, 4, 5, 7}
	if len(got) != len(want) {
		t.Fatalf("bucket count = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("bucket[%d] = %d, want %d", i, got[i], want[i])
		}
	}
	if h.Count() != 7 {
		t.Errorf("count = %d, want 7", h.Count())
	}
	if want := 0.5 + 1 + 1.0000001 + 2.5 + 5 + 7 + 100; math.Abs(h.Sum()-want) > 1e-9 {
		t.Errorf("sum = %g, want %g", h.Sum(), want)
	}
}

func TestHistogramUnsortedAndInfBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("x", "test", []float64{5, 1, math.Inf(1), 2})
	if got, want := len(h.buckets), 3; got != want {
		t.Fatalf("normalized buckets = %v", h.buckets)
	}
	for i, want := range []float64{1, 2, 5} {
		if h.buckets[i] != want {
			t.Errorf("buckets[%d] = %g, want %g", i, h.buckets[i], want)
		}
	}
}

// TestExpositionGolden pins the full text exposition format: HELP/TYPE
// headers, sorted families, escaped labels, histogram bucket/sum/count
// lines, and the label sets of counter, gauge and histogram families in
// sorted order.
func TestExpositionGolden(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("frac_requests_total", "requests received")
	c.Add(3)
	g := r.Gauge("frac_queue_depth", "queued shapes")
	g.Set(2)
	v := r.CounterVec("frac_shapes_total", "shapes by method", "method")
	v.With("mbf").Add(2)
	v.With("gsc").Inc()
	h := r.Histogram("frac_wait_seconds", "queue wait", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(2)
	r.GaugeFunc("frac_uptime_seconds", "uptime", func() float64 { return 12.5 })
	// label sets registered out of label order: exposition sorts them
	gv := r.GaugeVec("frac_workers", "workers by node and state", "node", "state")
	gv.With("n1", "busy").Set(3)
	gv.With("n0", "idle").Set(1)
	hv := r.HistogramVec("frac_request_seconds", "latency by path", []float64{0.1, 1}, "path")
	hv.With("/solve").Observe(0.5)
	hv.With("/fracture").Observe(0.05)
	hv.With("/fracture").Observe(2)

	got := string(r.WritePrometheus(nil))
	want := `# HELP frac_queue_depth queued shapes
# TYPE frac_queue_depth gauge
frac_queue_depth 2
# HELP frac_request_seconds latency by path
# TYPE frac_request_seconds histogram
frac_request_seconds_bucket{path="/fracture",le="0.1"} 1
frac_request_seconds_bucket{path="/fracture",le="1"} 1
frac_request_seconds_bucket{path="/fracture",le="+Inf"} 2
frac_request_seconds_sum{path="/fracture"} 2.05
frac_request_seconds_count{path="/fracture"} 2
frac_request_seconds_bucket{path="/solve",le="0.1"} 0
frac_request_seconds_bucket{path="/solve",le="1"} 1
frac_request_seconds_bucket{path="/solve",le="+Inf"} 1
frac_request_seconds_sum{path="/solve"} 0.5
frac_request_seconds_count{path="/solve"} 1
# HELP frac_requests_total requests received
# TYPE frac_requests_total counter
frac_requests_total 3
# HELP frac_shapes_total shapes by method
# TYPE frac_shapes_total counter
frac_shapes_total{method="gsc"} 1
frac_shapes_total{method="mbf"} 2
# HELP frac_uptime_seconds uptime
# TYPE frac_uptime_seconds gauge
frac_uptime_seconds 12.5
# HELP frac_wait_seconds queue wait
# TYPE frac_wait_seconds histogram
frac_wait_seconds_bucket{le="0.1"} 1
frac_wait_seconds_bucket{le="1"} 2
frac_wait_seconds_bucket{le="+Inf"} 3
frac_wait_seconds_sum 2.55
frac_wait_seconds_count 3
# HELP frac_workers workers by node and state
# TYPE frac_workers gauge
frac_workers{node="n0",state="idle"} 1
frac_workers{node="n1",state="busy"} 3
`
	if got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("c_total", "test", "path")
	v.With(`a"b\c`).Inc()
	out := string(r.WritePrometheus(nil))
	if !strings.Contains(out, `c_total{path="a\"b\\c"} 1`) {
		t.Errorf("label not escaped:\n%s", out)
	}
}

func TestHandlerServesExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("hits_total", "hits").Inc()
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type = %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "hits_total 1") {
		t.Errorf("body = %q", rec.Body.String())
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("dup_total", "first")
	defer func() {
		if recover() == nil {
			t.Error("no panic on duplicate registration")
		}
	}()
	r.Counter("dup_total", "second")
}

func TestCounterGaugeConcurrency(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("conc_total", "test")
	g := r.Gauge("conc_gauge", "test")
	h := r.Histogram("conc_hist", "test", []float64{50})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
				g.Add(1)
				g.Dec()
				h.Observe(float64(i % 100))
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Errorf("counter = %g, want 8000", c.Value())
	}
	if g.Value() != 0 {
		t.Errorf("gauge = %g, want 0", g.Value())
	}
	if h.Count() != 8000 {
		t.Errorf("histogram count = %d, want 8000", h.Count())
	}
}

func TestCounterVecEach(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("each_total", "test", "m")
	v.With("a").Add(2)
	v.With("b").Add(5)
	seen := map[string]float64{}
	v.Each(func(values []string, c *Counter) { seen[values[0]] = c.Value() })
	if seen["a"] != 2 || seen["b"] != 5 {
		t.Errorf("Each saw %v", seen)
	}
}

func TestGaugeVec(t *testing.T) {
	r := NewRegistry()
	v := r.GaugeVec("node_inflight", "in-flight by node", "node")
	v.With("n0").Set(3)
	v.With("n1").Inc()
	v.With("n1").Inc()
	v.With("n1").Dec()
	if got := v.With("n0").Value(); got != 3 {
		t.Errorf("n0 = %g", got)
	}
	seen := map[string]float64{}
	v.Each(func(values []string, g *Gauge) { seen[values[0]] = g.Value() })
	if seen["n0"] != 3 || seen["n1"] != 1 {
		t.Errorf("Each saw %v", seen)
	}
	out := string(r.WritePrometheus(nil))
	want := `# HELP node_inflight in-flight by node
# TYPE node_inflight gauge
node_inflight{node="n0"} 3
node_inflight{node="n1"} 1
`
	if out != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", out, want)
	}
}

func TestHistogramQuantile(t *testing.T) {
	// 90 observations <= 0.1, 10 in (0.1, 1]: p50 interpolates inside
	// the first bucket, p99 inside the second.
	bounds := []float64{0.1, 1}
	cum := []uint64{90, 100, 100}
	p50 := bucketQuantile(bounds, cum, 0.5)
	if p50 <= 0 || p50 > 0.1 {
		t.Errorf("p50 = %v, want in (0, 0.1]", p50)
	}
	if want := 0.1 * 50 / 90; math.Abs(p50-want) > 1e-12 {
		t.Errorf("p50 = %v, want linear interpolation %v", p50, want)
	}
	p99 := bucketQuantile(bounds, cum, 0.99)
	if p99 <= 0.1 || p99 > 1 {
		t.Errorf("p99 = %v, want in (0.1, 1]", p99)
	}
	// aggregation across label sets: two shards of the same family read
	// as the one histogram holding all their observations
	r := NewRegistry()
	vec := r.HistogramVec("h", "sharded", bounds, "m")
	for _, m := range []string{"a", "b"} {
		for i := 0; i < 45; i++ {
			vec.With(m).Observe(0.05)
		}
		for i := 0; i < 5; i++ {
			vec.With(m).Observe(0.5)
		}
	}
	if got := vec.Quantile(0.5); math.Abs(got-p50) > 1e-9 {
		t.Errorf("sharded p50 = %v, want %v", got, p50)
	}
	// +Inf-only mass clamps to the highest finite bound
	if got := bucketQuantile([]float64{0.1}, []uint64{0, 10}, 0.5); got != 0.1 {
		t.Errorf("tail p50 = %v, want clamp to 0.1", got)
	}
	// no observations
	if got := bucketQuantile(bounds, nil, 0.5); got != 0 {
		t.Errorf("empty quantile = %v", got)
	}
	if got := r.HistogramVec("empty", "no children", bounds, "m").Quantile(0.5); got != 0 {
		t.Errorf("empty family quantile = %v", got)
	}
}

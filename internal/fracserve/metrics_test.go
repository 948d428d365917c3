package fracserve

import (
	"bytes"
	"context"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"maskfrac/internal/geom"
	"maskfrac/internal/telemetry"
)

// scrape fetches url and returns the body as a string.
func scrape(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// metricValue extracts the value of the first sample line whose name
// (and label set, if the prefix carries one) matches prefix.
func metricValue(t *testing.T, exposition, prefix string) string {
	t.Helper()
	for _, line := range strings.Split(exposition, "\n") {
		if strings.HasPrefix(line, prefix+" ") || strings.HasPrefix(line, prefix+"{") {
			fields := strings.Fields(line)
			return fields[len(fields)-1]
		}
	}
	t.Fatalf("no %q sample in exposition:\n%s", prefix, exposition)
	return ""
}

// TestE2EMetricsMoveAfterFracture scrapes /metrics before and after a
// /fracture request and checks that the request counter, the per-method
// shape counters, the latency histogram and the shape-cache counters
// all move, and that the queue gauges are exported.
func TestE2EMetricsMoveAfterFracture(t *testing.T) {
	s := New(Config{Workers: 2, QueueDepth: 16})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := NewClient(ts.URL)

	before := scrape(t, ts.URL+"/metrics")
	if got := metricValue(t, before, "fracd_requests_total"); got != "0" {
		t.Errorf("fracd_requests_total before any request = %s", got)
	}

	shapes := []geom.Polygon{
		testL(),
		testL().Translate(geom.Pt(400, 50)), // congruent: cache hit
	}
	if _, err := c.FractureBatch(context.Background(), shapes, "proto-eda"); err != nil {
		t.Fatalf("fracture batch: %v", err)
	}

	after := scrape(t, ts.URL+"/metrics")
	ct := http.Header{}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	ct = resp.Header
	resp.Body.Close()
	if got := ct.Get("Content-Type"); !strings.Contains(got, "version=0.0.4") {
		t.Errorf("Content-Type = %q", got)
	}

	if got := metricValue(t, after, "fracd_requests_total"); got != "1" {
		t.Errorf("fracd_requests_total after one request = %s", got)
	}
	if got := metricValue(t, after, `fracd_shapes_total{method="proto-eda"}`); got != "2" {
		t.Errorf(`fracd_shapes_total{method="proto-eda"} = %s`, got)
	}
	if got := metricValue(t, after, `fracd_shape_cache_hits_total{method="proto-eda"}`); got != "1" {
		t.Errorf("per-method cache hits = %s", got)
	}
	if got := metricValue(t, after, "fracd_shapecache_hits_total"); got != "1" {
		t.Errorf("shapecache hits = %s", got)
	}
	if got := metricValue(t, after, "fracd_shapecache_misses_total"); got != "1" {
		t.Errorf("shapecache misses = %s", got)
	}
	// request latency histogram: count for /fracture must be 1
	if got := metricValue(t, after,
		`fracd_request_duration_seconds_count{path="/fracture"}`); got != "1" {
		t.Errorf("request duration count = %s", got)
	}
	if !strings.Contains(after, `fracd_request_duration_seconds_bucket{path="/fracture",le="+Inf"}`) {
		t.Error("no +Inf latency bucket for /fracture")
	}
	// queue instrumentation
	if got := metricValue(t, after, "fracd_queue_capacity"); got != "16" {
		t.Errorf("fracd_queue_capacity = %s", got)
	}
	if got := metricValue(t, after, "fracd_workers"); got != "2" {
		t.Errorf("fracd_workers = %s", got)
	}
	for _, name := range []string{
		"fracd_queue_depth", "fracd_inflight_requests",
		"fracd_queue_wait_seconds_count", "fracd_shots_per_shape_count",
		`fracd_solve_duration_seconds_count{method="proto-eda"}`,
		"fracd_eval_mutations_total", "fracd_eval_pixels_mutated_total",
		"fracd_eval_pixels_scored_total", "fracd_eval_pixels_per_mutation_count",
		"fracd_eval_arena_hits_total", "fracd_eval_arena_misses_total",
		"fracd_eval_arena_bytes_reused_total", "fracd_engine_steals_total",
	} {
		metricValue(t, after, name) // fatals if absent
	}
	// the solve above committed evaluator mutations; the process-wide
	// counter (and the observer-fed histogram) must have moved
	if got := metricValue(t, after, "fracd_eval_mutations_total"); got == "0" {
		t.Error("fracd_eval_mutations_total did not move during a solve")
	}
	// the solve churned evaluators through the problem's arena, so
	// buffer acquisitions (hits or misses) must be visible
	if got := metricValue(t, after, "fracd_eval_arena_misses_total"); got == "0" {
		if got := metricValue(t, after, "fracd_eval_arena_hits_total"); got == "0" {
			t.Error("arena counters did not move during a solve")
		}
	}
}

// TestE2ERequestIDAndAccessLog checks that every response carries an
// X-Request-ID (honoring the client's, if sent) and that the access log
// records it as one JSON line per request.
func TestE2ERequestIDAndAccessLog(t *testing.T) {
	var mu sync.Mutex
	var buf bytes.Buffer
	logw := writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return buf.Write(p)
	})
	s := New(Config{Workers: 1, Logger: telemetry.NewLogger(logw, telemetry.LevelInfo)})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.Header.Get("X-Request-ID") == "" {
		t.Error("response has no X-Request-ID")
	}

	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/healthz", nil)
	req.Header.Set("X-Request-ID", "caller-chosen-id")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); got != "caller-chosen-id" {
		t.Errorf("X-Request-ID = %q, want the caller's", got)
	}

	mu.Lock()
	logs := buf.String()
	mu.Unlock()
	if !strings.Contains(logs, `"msg":"request"`) {
		t.Errorf("no access log line:\n%s", logs)
	}
	if !strings.Contains(logs, `"id":"caller-chosen-id"`) {
		t.Errorf("access log does not carry the caller's request ID:\n%s", logs)
	}
	if !strings.Contains(logs, `"path":"/healthz"`) {
		t.Errorf("access log missing path:\n%s", logs)
	}
}

type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

// TestE2EPprofGated checks that /debug/pprof/ serves only when enabled.
func TestE2EPprofGated(t *testing.T) {
	on := New(Config{Workers: 1, EnablePprof: true})
	ts := httptest.NewServer(on.Handler())
	defer ts.Close()
	if body := scrape(t, ts.URL+"/debug/pprof/"); !strings.Contains(body, "goroutine") {
		t.Error("pprof index does not list profiles")
	}

	off := New(Config{Workers: 1})
	ts2 := httptest.NewServer(off.Handler())
	defer ts2.Close()
	resp, err := http.Get(ts2.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Error("pprof served without EnablePprof")
	}
}

// TestE2EStatsCoalescedField checks the additive cache stats field and
// that /stats values agree with the registry-backed instruments.
func TestE2EStatsCoalescedField(t *testing.T) {
	s, c := newTestServer(t, Config{Workers: 2})
	ctx := context.Background()
	shapes := []geom.Polygon{testL(), testShape(60)}
	if _, err := c.FractureBatch(ctx, shapes, "proto-eda"); err != nil {
		t.Fatal(err)
	}
	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Requests != 1 || st.ShapesDone != 2 {
		t.Errorf("stats requests=%d shapes_done=%d, want 1/2", st.Requests, st.ShapesDone)
	}
	m, ok := st.Methods["proto-eda"]
	if !ok {
		t.Fatalf("no proto-eda method stats: %+v", st.Methods)
	}
	if m.Count != 2 || m.Errors != 0 || m.Shots == 0 {
		t.Errorf("method stats = %+v", m)
	}
	if m.AvgSolveMS <= 0 || m.TotalSolveMS < m.AvgSolveMS {
		t.Errorf("solve timing stats = %+v", m)
	}
	if st.Cache.Hits+st.Cache.Misses == 0 {
		t.Error("cache counters did not move")
	}
	if st.Cache.Coalesced > st.Cache.Hits {
		t.Errorf("coalesced=%d > hits=%d", st.Cache.Coalesced, st.Cache.Hits)
	}
	// the control-plane fields /clusterz reads: the /stats request is
	// itself in flight, and the one finished request has a latency
	if st.Inflight < 1 {
		t.Errorf("inflight = %d, want >= 1 (this request)", st.Inflight)
	}
	if st.P50MS <= 0 || st.P99MS < st.P50MS {
		t.Errorf("latency quantiles p50=%v p99=%v", st.P50MS, st.P99MS)
	}
	if _, retained, _ := s.traces.Stats(); st.TracesRetained != int(retained) {
		t.Errorf("traces_retained = %d, trace store holds %d", st.TracesRetained, retained)
	}
}

// TestE2EDrainLogging checks the graceful-drain log line reports the
// drained shape count.
func TestE2EDrainLogging(t *testing.T) {
	var mu sync.Mutex
	var buf bytes.Buffer
	logw := writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return buf.Write(p)
	})
	// serve a real listener: Shutdown must wait for the in-flight
	// request (httptest wrapping only the handler would not)
	s := New(Config{
		Workers: 1, QueueDepth: 8,
		Logger: telemetry.NewLogger(logw, telemetry.LevelInfo),
	})
	s.workDelay = 100 * time.Millisecond
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- s.Serve(l) }()
	c := NewClient("http://" + l.Addr().String())

	done := make(chan error, 1)
	go func() {
		_, err := c.FractureBatch(context.Background(),
			[]geom.Polygon{testShape(40), testShape(50)}, "partition")
		done <- err
	}()
	time.Sleep(30 * time.Millisecond) // let the request reach the queue
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("in-flight request failed: %v", err)
	}
	if err := <-serveDone; err != nil {
		t.Fatalf("serve: %v", err)
	}

	mu.Lock()
	logs := buf.String()
	mu.Unlock()
	if !strings.Contains(logs, `"msg":"draining"`) {
		t.Errorf("no draining line:\n%s", logs)
	}
	if !strings.Contains(logs, `"msg":"drained"`) {
		t.Errorf("no drained line:\n%s", logs)
	}
	if !strings.Contains(logs, `"drained_shapes":2`) {
		t.Errorf("drained line does not report 2 drained shapes:\n%s", logs)
	}
}

// TestE2ERouteLabels checks that the latency histogram labels each
// request with the mux pattern that served it — a built-in endpoint, a
// subtree, a handler mounted with Handle — and a path nothing serves
// with "other".
func TestE2ERouteLabels(t *testing.T) {
	s := New(Config{Workers: 1})
	s.Handle("/extra", http.HandlerFunc(func(http.ResponseWriter, *http.Request) {}))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	if _, err := NewClient(ts.URL).Fracture(context.Background(), testShape(60), "proto-eda"); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{"/extra", "/debug/traces/0123", "/no/such/path"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	text := string(s.Metrics().WritePrometheus(nil))
	for _, label := range []string{"/fracture", "/extra", "/debug/traces/", "other"} {
		if got := metricValue(t, text, `fracd_request_duration_seconds_count{path="`+label+`"}`); got != "1" {
			t.Errorf("requests labelled %q = %s, want 1", label, got)
		}
	}
}

// TestClientReusesConnections proves the client drains and closes
// response bodies on every path: success, JSON error replies and
// plain-status replies. If any path leaves a body undrained, the
// connection cannot return to the keep-alive pool and the transport
// dials again — observable as more than one accepted connection.
func TestClientReusesConnections(t *testing.T) {
	s := New(Config{Workers: 2, QueueDepth: 8})
	ts := httptest.NewUnstartedServer(s.Handler())
	var conns atomic.Int64
	ts.Config.ConnState = func(c net.Conn, st http.ConnState) {
		if st == http.StateNew {
			conns.Add(1)
		}
	}
	ts.Start()
	t.Cleanup(ts.Close)

	// a private transport so other tests' pooled connections can't mask
	// a regression
	tr := &http.Transport{MaxIdleConnsPerHost: 1}
	t.Cleanup(tr.CloseIdleConnections)
	c := NewClient(ts.URL)
	c.HTTPClient = &http.Client{Transport: tr}

	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if err := c.Healthz(ctx); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Fracture(ctx, geom.Polygon{{X: 0, Y: 0}, {X: 60, Y: 0}, {X: 60, Y: 60}, {X: 0, Y: 60}}, "proto-eda"); err != nil {
			t.Fatal(err)
		}
		// error path: unknown method → 400 with a JSON body
		if _, err := c.Fracture(ctx, geom.Polygon{{X: 0, Y: 0}, {X: 60, Y: 0}, {X: 60, Y: 60}, {X: 0, Y: 60}}, "no-such-method"); err == nil {
			t.Fatal("unknown method succeeded")
		}
		if _, err := c.Stats(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if got := conns.Load(); got != 1 {
		t.Errorf("server accepted %d connections across 12 requests, want 1 (bodies not drained?)", got)
	}
}

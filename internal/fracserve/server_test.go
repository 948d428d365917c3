package fracserve

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"maskfrac"
	"maskfrac/internal/cover"
	"maskfrac/internal/fracture/engine"
	"maskfrac/internal/geom"
)

func testShape(side float64) geom.Polygon {
	return geom.Polygon{{X: 0, Y: 0}, {X: side, Y: 0}, {X: side, Y: side}, {X: 0, Y: side}}
}

func testL() geom.Polygon {
	return geom.Polygon{
		{X: 0, Y: 0}, {X: 90, Y: 0}, {X: 90, Y: 30},
		{X: 30, Y: 30}, {X: 30, Y: 120}, {X: 0, Y: 120},
	}
}

func newTestServer(t *testing.T, cfg Config) (*Server, *Client) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, NewClient(ts.URL)
}

func TestE2ESuccessfulBatch(t *testing.T) {
	s, c := newTestServer(t, Config{Workers: 4, QueueDepth: 32})
	ctx := context.Background()
	if err := c.Healthz(ctx); err != nil {
		t.Fatalf("healthz: %v", err)
	}
	shapes := []geom.Polygon{
		testL(),
		testL().Translate(geom.Pt(500, 100)), // congruent: cache hit
		testShape(70),
		{{X: 0, Y: 0}, {X: 1, Y: 1}}, // degenerate: per-item error
	}
	resp, err := c.FractureBatch(ctx, shapes, "proto-eda")
	if err != nil {
		t.Fatalf("fracture batch: %v", err)
	}
	if len(resp.Results) != 4 {
		t.Fatalf("results = %d", len(resp.Results))
	}
	for i, it := range resp.Results {
		if it.Index != i {
			t.Errorf("result %d has index %d", i, it.Index)
		}
	}
	if resp.Results[3].Error == "" {
		t.Error("degenerate shape produced no error")
	}
	for _, i := range []int{0, 1, 2} {
		it := resp.Results[i]
		if it.Error != "" {
			t.Errorf("shape %d failed: %s", i, it.Error)
		}
		if it.ShotCount == 0 || len(it.Shots) != it.ShotCount {
			t.Errorf("shape %d: %d shots, %d on wire", i, it.ShotCount, len(it.Shots))
		}
		if _, err := it.ShotRects(); err != nil {
			t.Errorf("shape %d: bad wire shots: %v", i, err)
		}
	}
	// shapes 0 and 1 are congruent: exactly one computes, the other is
	// served from the cache. Which one waits depends on worker
	// scheduling (singleflight), so assert the pair, not an index.
	if resp.Results[0].CacheHit == resp.Results[1].CacheHit {
		t.Errorf("congruent pair cache hits = %v/%v, want exactly one",
			resp.Results[0].CacheHit, resp.Results[1].CacheHit)
	}
	if resp.Results[0].ShotCount != resp.Results[1].ShotCount {
		t.Error("congruent shapes differ in shot count")
	}
	if resp.Summary.Shapes != 4 || resp.Summary.Errors != 1 || resp.Summary.CacheHits == 0 {
		t.Errorf("summary = %+v", resp.Summary)
	}

	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	if st.Requests == 0 || st.ShapesDone < 3 {
		t.Errorf("stats = %+v", st)
	}
	if st.Cache.Hits == 0 || st.Cache.Misses == 0 {
		t.Errorf("cache stats = %+v", st.Cache)
	}
	if st.Methods["proto-eda"].Count == 0 {
		t.Errorf("method stats missing: %+v", st.Methods)
	}
	_ = s
}

func TestE2EQueueOverflow429(t *testing.T) {
	// one worker stalled long enough to hold jobs in a depth-1 queue
	s := New(Config{Workers: 1, QueueDepth: 1})
	s.workDelay = 300 * time.Millisecond
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	c := NewClient(ts.URL)
	ctx := context.Background()

	// the first batch occupies the worker and fills the queue; a
	// concurrent one must overflow
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c.FractureBatch(ctx, []geom.Polygon{testShape(60), testShape(62)}, "proto-eda")
	}()
	time.Sleep(50 * time.Millisecond) // let the first batch enqueue

	sawOverflow := false
	for i := 0; i < 10 && !sawOverflow; i++ {
		_, err := c.FractureBatch(ctx, []geom.Polygon{testShape(64), testShape(66)}, "proto-eda")
		if errors.Is(err, ErrQueueFull) {
			sawOverflow = true
			// the 429 carries the server's Retry-After pacing hint
			if after, ok := RetryAfter(err); !ok || after <= 0 {
				t.Errorf("RetryAfter(%v) = %v, %v; want a positive hint", err, after, ok)
			}
			var qf *QueueFullError
			if !errors.As(err, &qf) {
				t.Errorf("429 error is %T, want *QueueFullError", err)
			}
		} else if err != nil {
			t.Fatalf("unexpected error: %v", err)
		}
	}
	wg.Wait()
	if !sawOverflow {
		t.Fatal("no 429 despite a full queue")
	}
	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Rejected == 0 {
		t.Errorf("rejected counter = 0, stats %+v", st)
	}
}

func TestE2EPerRequestDeadline(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 8})
	s.workDelay = 500 * time.Millisecond
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	c := NewClient(ts.URL)

	_, err := c.Do(context.Background(), &Request{
		Shape:     [][2]float64{{0, 0}, {60, 0}, {60, 60}, {0, 60}},
		Method:    "proto-eda",
		TimeoutMS: 50,
	})
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline", err)
	}
	st, err := c.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Timeouts == 0 {
		t.Errorf("timeout counter = 0, stats %+v", st)
	}
}

func TestE2EGracefulShutdownDrainsInFlight(t *testing.T) {
	s := New(Config{Workers: 2, QueueDepth: 8})
	s.workDelay = 200 * time.Millisecond
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- s.Serve(l) }()
	c := NewClient("http://" + l.Addr().String())

	type reply struct {
		resp *Response
		err  error
	}
	inFlight := make(chan reply, 1)
	go func() {
		resp, err := c.FractureBatch(context.Background(), []geom.Polygon{testShape(70)}, "proto-eda")
		inFlight <- reply{resp, err}
	}()
	time.Sleep(50 * time.Millisecond) // let the request reach the queue

	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(shutCtx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	r := <-inFlight
	if r.err != nil {
		t.Fatalf("in-flight request failed during shutdown: %v", r.err)
	}
	if len(r.resp.Results) != 1 || r.resp.Results[0].Error != "" || r.resp.Results[0].ShotCount == 0 {
		t.Errorf("in-flight result = %+v", r.resp.Results)
	}
	if err := <-serveDone; err != nil {
		t.Errorf("serve returned %v", err)
	}
	// new connections are refused after shutdown
	if err := c.Healthz(context.Background()); err == nil {
		t.Error("healthz succeeded after shutdown")
	}
}

func TestE2EBadRequests(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	ctx := context.Background()
	if _, err := c.Do(ctx, &Request{}); err == nil {
		t.Error("empty request accepted")
	}
	if _, err := c.Do(ctx, &Request{Shape: [][2]float64{{0, 0}, {60, 0}, {60, 60}, {0, 60}}, Method: "bogus"}); err == nil {
		t.Error("unknown method accepted")
	}
	if _, err := c.Do(ctx, &Request{
		Shape:  [][2]float64{{0, 0}, {60, 0}, {60, 60}, {0, 60}},
		Shapes: [][][2]float64{{{0, 0}, {60, 0}, {60, 60}, {0, 60}}},
	}); err == nil {
		t.Error("shape+shapes accepted")
	}

	// an unknown method and a malformed body get the same 400 and
	// message on every endpoint that resolves a method
	square := `[[0,0],[60,0],[60,60],[0,60]]`
	for _, tc := range []struct{ path, body, want string }{
		{"/fracture", `{"shape":` + square + `,"method":"bogus"}`, "unknown method bogus"},
		{"/solve", `{"shapes":[` + square + `],"method":"bogus"}`, "unknown method bogus"},
		{"/stats/classes", `{"method":"bogus","classes":[{"shape":` + square + `,"uses":1}]}`, "unknown method bogus"},
		{"/fracture", `{"shape":`, "bad request body: unexpected EOF"},
		{"/solve", `{"shapes":`, "bad request body: unexpected EOF"},
		{"/stats/classes", `{"classes":`, "bad request body: unexpected EOF"},
	} {
		resp, err := http.Post(c.BaseURL+tc.path, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatalf("%s: %v", tc.path, err)
		}
		var er ErrorReply
		err = json.NewDecoder(resp.Body).Decode(&er)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("%s %s: decode error reply: %v", tc.path, tc.body, err)
		}
		if resp.StatusCode != http.StatusBadRequest || er.Error != tc.want {
			t.Errorf("%s %s: HTTP %d %q, want 400 %q", tc.path, tc.body, resp.StatusCode, er.Error, tc.want)
		}
	}
}

func TestE2EOmitShotsAndParamsOverride(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 2, QueueDepth: 8})
	resp, err := c.Do(context.Background(), &Request{
		Shape:     [][2]float64{{0, 0}, {80, 0}, {80, 80}, {0, 80}},
		Method:    "proto-eda",
		Params:    &ParamsWire{Gamma: 3},
		OmitShots: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	it := resp.Results[0]
	if it.Error != "" {
		t.Fatalf("item error: %s", it.Error)
	}
	if it.Shots != nil {
		t.Error("shots present despite omit_shots")
	}
	if it.ShotCount == 0 {
		t.Error("shot count missing")
	}
}

func TestServerCacheDisabled(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 2, QueueDepth: 8, CacheEntries: -1})
	shapes := []geom.Polygon{testL(), testL().Translate(geom.Pt(10, 10))}
	resp, err := c.FractureBatch(context.Background(), shapes, "proto-eda")
	if err != nil {
		t.Fatal(err)
	}
	for i, it := range resp.Results {
		if it.CacheHit {
			t.Errorf("item %d hit a disabled cache", i)
		}
	}
	st, err := c.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Cache.MaxEntries != 0 {
		t.Errorf("cache stats reported despite disabled cache: %+v", st.Cache)
	}
}

func init() {
	engine.Register("test-panic", func(context.Context, *cover.Problem, engine.Options) (*engine.Solution, error) {
		// long enough for a concurrent request for the shape to join
		time.Sleep(100 * time.Millisecond)
		panic("zz boom")
	})
}

// TestE2ESolverPanic checks that a panicking solver fails only the
// requests that asked for it: on /fracture the leader's item reports
// the panic and a concurrent request for the same shape gets an error
// instead of waiting out its deadline, /solve answers 422, the server
// keeps serving, and fracd_panics_total counts each panic once. Both
// endpoints keep the panicking request's trace as an error trace in
// /debug/traces, and the span the solve ran in (the shape's on
// /fracture, the request's on /solve) ends inside the request with the
// error, the panic value and the stack.
func TestE2ESolverPanic(t *testing.T) {
	s, c := newTestServer(t, Config{Workers: 2, QueueDepth: 8})
	ctx := context.Background()
	items := make([]ItemResult, 2)
	traceIDs := make([]string, 2)
	var wg sync.WaitGroup
	for i := range items {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := c.FractureBatch(ctx, []geom.Polygon{testShape(60)}, "test-panic")
			if err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			items[i], traceIDs[i] = resp.Results[0], resp.TraceID
		}()
	}
	wg.Wait()
	leaders := 0
	var panicTraces []string
	for i, it := range items {
		switch {
		case it.Error == "solver panic: zz boom":
			leaders++
			panicTraces = append(panicTraces, traceIDs[i])
		case !strings.Contains(it.Error, "zz boom"):
			t.Errorf("request %d: item error %q, want the panic", i, it.Error)
		}
	}
	if leaders == 0 {
		t.Error("no /fracture item reports the solver panic")
	}

	_, err := c.SolveShapes(ctx, []geom.Polygon{testShape(60)}, "test-panic")
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusUnprocessableEntity || se.Msg != "solver panic: zz boom" {
		t.Errorf("/solve: err = %v, want 422 solver panic: zz boom", err)
	}

	getJSON := func(path string, out any) {
		t.Helper()
		resp, err := c.http().Get(c.BaseURL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: HTTP %d", path, resp.StatusCode)
		}
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("GET %s: decode: %v", path, err)
		}
	}
	var list TraceListReply
	getJSON("/debug/traces", &list)
	for _, sum := range list.Traces {
		if sum.Name == "fracd.solve" && sum.Err == "solver panic: zz boom" {
			panicTraces = append(panicTraces, sum.TraceID)
		}
	}
	if len(panicTraces) != leaders+1 {
		t.Fatalf("%d panic traces (%v), want %d /fracture leaders and one /solve", len(panicTraces), panicTraces, leaders)
	}
	for _, id := range panicTraces {
		for _, sum := range list.Traces {
			if sum.TraceID == id && (sum.Kept != "error" || sum.Err != "solver panic: zz boom") {
				t.Errorf("trace %s (%s): kept %q with err %q, want an error trace", id, sum.Name, sum.Kept, sum.Err)
			}
		}
		var one TraceReply
		getJSON("/debug/traces/"+id, &one)
		root := one.Trace.Root
		span := root.Find("fracd.shape")
		if root.Name == "fracd.solve" {
			span = root
		}
		if span == nil {
			t.Fatalf("trace %s (%s) has no fracd.shape span", id, root.Name)
		}
		if end, rootEnd := span.StartNS+span.DurNS, root.StartNS+root.DurNS; end > rootEnd {
			t.Errorf("trace %s: %s span ends %d ns after its request", id, span.Name, end-rootEnd)
		}
		attrs := map[string]string{}
		for _, a := range span.Attrs {
			attrs[a.K] = a.V
		}
		if attrs["err"] != "solver panic: zz boom" || attrs["panic"] != "zz boom" ||
			!strings.Contains(attrs["stack"], "server_test.go") {
			t.Errorf("trace %s: %s span attrs %v, want the error, the panic value and the stack", id, span.Name, attrs)
		}
	}
	if err := c.Healthz(ctx); err != nil {
		t.Fatalf("healthz after the panics: %v", err)
	}
	text := string(s.Metrics().WritePrometheus(nil))
	if got, want := metricValue(t, text, "fracd_panics_total"), strconv.Itoa(leaders+1); got != want {
		t.Errorf("fracd_panics_total = %s, want %s (%d /fracture leaders and one /solve)", got, want, leaders)
	}
}

// TestE2EShutdownMidBody503 checks that a request still reading its
// body when the drain budget runs out is answered 503 once the queue
// is closed, not a send on the closed queue.
func TestE2EShutdownMidBody503(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 8})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(l)
	body, bodyW := io.Pipe()
	req, err := http.NewRequest(http.MethodPost, "http://"+l.Addr().String()+"/fracture", body)
	if err != nil {
		t.Fatal(err)
	}
	type reply struct {
		resp *http.Response
		err  error
	}
	replies := make(chan reply, 1)
	go func() {
		resp, err := (&http.Client{Transport: &http.Transport{}}).Do(req)
		replies <- reply{resp, err}
	}()
	io.WriteString(bodyW, `{"shape":[[0,0],[60,0],`)
	for s.inflight.Value() == 0 {
		time.Sleep(time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("shutdown with a handler still reading: err = %v, want DeadlineExceeded", err)
	}
	io.WriteString(bodyW, `[60,60],[0,60]],"method":"proto-eda"}`)
	bodyW.Close()

	r := <-replies
	if r.err != nil {
		t.Fatalf("request cut off: %v", r.err)
	}
	defer r.resp.Body.Close()
	var er ErrorReply
	if err := json.NewDecoder(r.resp.Body).Decode(&er); err != nil {
		t.Fatalf("decode error reply: %v", err)
	}
	if r.resp.StatusCode != http.StatusServiceUnavailable || er.Error != "server shutting down" {
		t.Errorf("HTTP %d %q, want 503 %q", r.resp.StatusCode, er.Error, "server shutting down")
	}
}

// compile-time check that the maskfrac default method list stays in
// sync with the server's validation.
var _ = maskfrac.Methods

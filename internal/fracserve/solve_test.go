package fracserve

import (
	"context"
	"errors"
	"net/http/httptest"
	"os"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"maskfrac/internal/cover"
	"maskfrac/internal/fracture/engine"
	"maskfrac/internal/geom"
	"maskfrac/internal/maskio"
)

// solveShapes builds a two-region instance: two squares far outside
// the ~41.5 nm proximity interaction range.
func solveShapes() []geom.Polygon {
	return []geom.Polygon{
		testShape(60),
		testShape(70).Translate(geom.Pt(300, 300)),
	}
}

func TestE2ESolveMultiRegion(t *testing.T) {
	s, c := newTestServer(t, Config{Workers: 4, QueueDepth: 32})
	ctx := context.Background()

	resp, err := c.SolveShapes(ctx, solveShapes(), "gsc")
	if err != nil {
		t.Fatalf("solve: %v", err)
	}
	if resp.Regions != 2 {
		t.Errorf("regions = %d, want 2", resp.Regions)
	}
	if resp.ShotCount == 0 || len(resp.Shots) != resp.ShotCount {
		t.Errorf("shot_count = %d with %d shots on the wire", resp.ShotCount, len(resp.Shots))
	}
	if resp.Quality != nil {
		t.Error("quality present without include_quality")
	}
	if _, err := resp.ShotRects(); err != nil {
		t.Errorf("shot decode: %v", err)
	}

	// the regions histogram observed the decomposition
	text := string(s.Metrics().WritePrometheus(nil))
	if !strings.Contains(text, "fracd_regions_per_request") {
		t.Error("metrics missing fracd_regions_per_request")
	}
	if !strings.Contains(text, "fracd_solve_requests_total 1") {
		t.Error("metrics missing fracd_solve_requests_total 1")
	}
}

// TestE2ESolveSparseLayout checks that /solve samples only the regions
// of a sparse layout. Two 10 nm squares 5000 nm apart span a union grid
// of 2.5·10⁷ pixels, several hundred MB with a float64 dose field over
// it; the request must answer with both regions, the shots of solving
// each square alone, and far less allocation than that grid.
func TestE2ESolveSparseLayout(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 2, QueueDepth: 8})
	ctx := context.Background()
	squares := []geom.Polygon{testShape(10), testShape(10).Translate(geom.Pt(5000, 5000))}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	resp, err := c.SolveShapes(ctx, squares, "mbf")
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatalf("solve: %v", err)
	}
	if resp.Regions != 2 {
		t.Errorf("regions = %d, want 2", resp.Regions)
	}

	var want [][4]float64
	failOn, failOff := 0, 0
	for _, sq := range squares {
		alone, err := c.SolveShapes(ctx, []geom.Polygon{sq}, "mbf")
		if err != nil {
			t.Fatalf("solve alone: %v", err)
		}
		want = append(want, alone.Shots...)
		failOn += alone.FailOn
		failOff += alone.FailOff
	}
	if !reflect.DeepEqual(resp.Shots, want) {
		t.Errorf("shots %v, want the squares' own %v", resp.Shots, want)
	}
	// whole-nanometre bounds put each square's own grid on the union
	// grid's lattice, so the counts add up
	if resp.FailOn != failOn || resp.FailOff != failOff {
		t.Errorf("fail on/off = %d/%d, want %d/%d", resp.FailOn, resp.FailOff, failOn, failOff)
	}

	const limit = 64 << 20
	alloc := after.TotalAlloc - before.TotalAlloc
	if os.Getenv("MASKFRAC_EVAL_CHECK") != "" {
		// the evaluator cross-check samples the union grid on purpose
		t.Logf("allocated %d MB under MASKFRAC_EVAL_CHECK; bound not applied", alloc>>20)
		return
	}
	if alloc > limit {
		t.Errorf("request allocated %d MB, want under %d MB", alloc>>20, limit>>20)
	}
}

func TestE2ESolveQualityAndOmitShots(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 2, QueueDepth: 32})
	ctx := context.Background()

	wires := make([][][2]float64, 0, 2)
	for _, p := range solveShapes() {
		wires = append(wires, maskio.PolygonWire(p))
	}
	resp, err := c.Solve(ctx, &SolveRequest{
		Shapes:         wires,
		Method:         "gsc",
		OmitShots:      true,
		IncludeQuality: true,
	})
	if err != nil {
		t.Fatalf("solve: %v", err)
	}
	if resp.Shots != nil {
		t.Error("omit_shots returned shots")
	}
	if resp.ShotCount == 0 {
		t.Error("shot_count = 0")
	}
	q := resp.Quality
	if q == nil {
		t.Fatal("include_quality returned no quality block")
	}
	if q.EPESamples == 0 {
		t.Error("quality has no EPE samples")
	}
	if q.MinShotDim <= 0 {
		t.Errorf("min shot dim = %v", q.MinShotDim)
	}
	if q.MeanAspect < 1 {
		t.Errorf("mean aspect = %v, want >= 1", q.MeanAspect)
	}
}

// TestE2ESolveDeterministicAcrossWorkers is the service-level
// determinism guard: the same instance solved with 1 and 4 workers
// returns identical shot lists and evaluation results.
func TestE2ESolveDeterministicAcrossWorkers(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 4, QueueDepth: 32})
	ctx := context.Background()

	wires := make([][][2]float64, 0, 2)
	for _, p := range solveShapes() {
		wires = append(wires, maskio.PolygonWire(p))
	}
	seq, err := c.Solve(ctx, &SolveRequest{Shapes: wires, Method: "mbf", Workers: 1})
	if err != nil {
		t.Fatalf("solve workers=1: %v", err)
	}
	par, err := c.Solve(ctx, &SolveRequest{Shapes: wires, Method: "mbf", Workers: 4})
	if err != nil {
		t.Fatalf("solve workers=4: %v", err)
	}
	if !reflect.DeepEqual(seq.Shots, par.Shots) {
		t.Error("workers=1 and workers=4 shot lists differ")
	}
	if seq.FailOn != par.FailOn || seq.FailOff != par.FailOff {
		t.Errorf("fail counts differ: %d/%d vs %d/%d",
			seq.FailOn, seq.FailOff, par.FailOn, par.FailOff)
	}
}

func TestE2ESolveRejections(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1, QueueDepth: 4, MaxShapes: 2})
	ctx := context.Background()

	cases := []struct {
		name string
		req  *SolveRequest
		want string
	}{
		{"no shapes", &SolveRequest{}, "no shapes"},
		{"unknown method", &SolveRequest{
			Shapes: [][][2]float64{maskio.PolygonWire(testShape(60))},
			Method: "bogus",
		}, "unknown method"},
		{"too many shapes", &SolveRequest{
			Shapes: [][][2]float64{
				maskio.PolygonWire(testShape(60)),
				maskio.PolygonWire(testShape(60)),
				maskio.PolygonWire(testShape(60)),
			},
		}, "per-request limit"},
		{"degenerate shape", &SolveRequest{
			Shapes: [][][2]float64{{{0, 0}, {1, 1}}},
		}, "shape 0"},
	}
	for _, tc := range cases {
		if _, err := c.Solve(ctx, tc.req); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
	}
}

func TestE2ESolveDeadline(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 2, QueueDepth: 8})
	ctx := context.Background()

	wires := make([][][2]float64, 0, 2)
	for _, p := range solveShapes() {
		wires = append(wires, maskio.PolygonWire(p))
	}
	// Workers: 1 makes expiry deterministic: the deadline passes while
	// the first region solves (an MBF solve takes far more than 1 ms),
	// so the second region's pre-solve context check always fires. With
	// more workers both regions could be dispatched before expiry and
	// the request would legitimately succeed.
	_, err := c.Solve(ctx, &SolveRequest{Shapes: wires, Method: "mbf", Workers: 1, TimeoutMS: 1})
	if err == nil {
		t.Fatal("1 ms deadline succeeded")
	}
	if !errors.Is(err, ErrDeadline) {
		t.Errorf("err = %v, want ErrDeadline", err)
	}
}

// concurrencyProbe records the peak number of "test-concurrency-probe"
// solves running at once.
var concurrencyProbe struct {
	cur, peak atomic.Int64
}

func init() {
	engine.Register("test-concurrency-probe", func(ctx context.Context, p *cover.Problem, _ engine.Options) (*engine.Solution, error) {
		n := concurrencyProbe.cur.Add(1)
		defer concurrencyProbe.cur.Add(-1)
		for {
			peak := concurrencyProbe.peak.Load()
			if n <= peak || concurrencyProbe.peak.CompareAndSwap(peak, n) {
				break
			}
		}
		time.Sleep(50 * time.Millisecond)
		return &engine.Solution{Shots: []geom.Rect{p.TargetBounds()}}, nil
	})
}

// TestE2ESolveBoundedByWorkers checks that /solve requests queue for
// the server's workers: concurrent requests to a one-worker server
// never solve two at once, and each one's wait is in the queue-wait
// histogram.
func TestE2ESolveBoundedByWorkers(t *testing.T) {
	s, c := newTestServer(t, Config{Workers: 1, QueueDepth: 8, CacheEntries: -1})
	concurrencyProbe.peak.Store(0)
	const requests = 4
	var wg sync.WaitGroup
	for i := range requests {
		wg.Add(1)
		go func() {
			defer wg.Done()
			shapes := []geom.Polygon{testShape(float64(40 + 10*i))}
			if _, err := c.SolveShapes(context.Background(), shapes, "test-concurrency-probe"); err != nil {
				t.Errorf("request %d: %v", i, err)
			}
		}()
	}
	wg.Wait()
	if peak := concurrencyProbe.peak.Load(); peak != 1 {
		t.Errorf("%d concurrent /solve requests to 1 worker peaked at %d solves, want 1", requests, peak)
	}
	if n := s.queueWait.Count(); n != requests {
		t.Errorf("queue wait observed %d times, want %d", n, requests)
	}
}

// TestE2ESolveDeadlineWhileSolving checks that /solve answers 504 when
// its budget runs out, even though the solver ignores its ctx and would
// succeed later.
func TestE2ESolveDeadlineWhileSolving(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1, QueueDepth: 8, CacheEntries: -1})
	_, err := c.Solve(context.Background(), &SolveRequest{
		Shapes:    [][][2]float64{maskio.PolygonWire(testShape(60))},
		Method:    "test-concurrency-probe",
		TimeoutMS: 10,
	})
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("10 ms budget on a 50 ms solve: err = %v, want ErrDeadline", err)
	}
	// the worker finishes the abandoned solve; wait for it so the
	// probe is idle for the next test
	for concurrencyProbe.cur.Load() != 0 {
		time.Sleep(time.Millisecond)
	}
}

// TestE2ESolveQueueFull429 checks that /solve shares /fracture's
// admission: with the one worker stalled and the depth-1 queue full, a
// /solve request is rejected with 429 and a Retry-After hint. The
// request is a 2000 nm square, whose grid of 4.2 M pixels would take
// several MB: the handler must not sample it before it queues.
func TestE2ESolveQueueFull429(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 1})
	s.workDelay = 300 * time.Millisecond
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	c := NewClient(ts.URL)
	ctx := context.Background()

	// one request on the stalled worker, then one in the queue
	fractures := make(chan error, 2)
	fracture := func(side float64) {
		_, err := c.FractureBatch(ctx, []geom.Polygon{testShape(side)}, "proto-eda")
		fractures <- err
	}
	go fracture(60)
	for s.queueWait.Count() == 0 {
		time.Sleep(time.Millisecond)
	}
	go fracture(62)
	for len(s.jobs) == 0 {
		time.Sleep(time.Millisecond)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := c.SolveShapes(ctx, []geom.Polygon{testShape(2000)}, "proto-eda")
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("/solve to a full queue: err = %v, want ErrQueueFull", err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Errorf("rejected /solve allocated %d KB, want under 1 MB", alloc>>10)
	}
	if after, ok := RetryAfter(err); !ok || after <= 0 {
		t.Errorf("RetryAfter(%v) = %v, %v; want a positive hint", err, after, ok)
	}
	for range 2 {
		if err := <-fractures; err != nil {
			t.Fatalf("request that filled the queue: %v", err)
		}
	}
	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Rejected != 1 {
		t.Errorf("rejected = %d, want 1", st.Rejected)
	}
}

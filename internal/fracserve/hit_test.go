package fracserve

import (
	"context"
	"errors"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"

	"maskfrac"
	"maskfrac/internal/cover"
	"maskfrac/internal/fracture/engine"
	"maskfrac/internal/geom"
	"maskfrac/internal/maskio"
	"maskfrac/internal/shapecache"
	"maskfrac/internal/shapegen"
	"maskfrac/internal/telemetry"
)

func init() {
	// one shot covering the target: a solve that costs only sampling
	engine.Register("test-bounds", func(_ context.Context, p *cover.Problem, _ engine.Options) (*engine.Solution, error) {
		return &engine.Solution{Shots: []geom.Rect{p.TargetBounds()}}, nil
	})
}

// congruentCopy is pg under tr, shifted by d.
func congruentCopy(pg geom.Polygon, tr shapecache.Transform, d geom.Point) geom.Polygon {
	out := make(geom.Polygon, len(pg))
	for i, p := range pg {
		out[i] = tr.Apply(p).Add(d)
	}
	return out
}

// warm solves pg into s's cache the way /fracture would for a request
// that sets only the method, and returns the result.
func warm(t *testing.T, s *Server, pg geom.Polygon, m maskfrac.Method) *maskfrac.Result {
	t.Helper()
	res, hit, err := maskfrac.FractureCached(context.Background(), pg, s.cfg.Params, m, nil, s.cache)
	if err != nil || hit {
		t.Fatalf("warm-up solve: hit %v, err %v", hit, err)
	}
	return res
}

// waitFor polls cond until it holds, failing the test after 10 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestE2EHitBypassesFullQueue stalls the only worker and fills the
// one-slot queue: a miss is refused with 429, while a congruent copy
// of a cached shape is answered with 200 from the cache, queueing
// nothing (the hit used to ride the queue and got 429 too).
func TestE2EHitBypassesFullQueue(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 1})
	s.workDelay = time.Minute // until the fillers' requests are cancelled
	base := testL()
	want := warm(t, s, base, maskfrac.MethodProtoEDA)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	c := NewClient(ts.URL)
	ctx := context.Background()

	fillCtx, cancel := context.WithCancel(ctx)
	var fillers sync.WaitGroup
	defer func() {
		cancel()
		fillers.Wait()
	}()
	fill := func(side float64) {
		fillers.Add(1)
		go func() {
			defer fillers.Done()
			c.FractureBatch(fillCtx, []geom.Polygon{testShape(side)}, "proto-eda")
		}()
	}
	fill(60)
	waitFor(t, "the worker to take the first job", func() bool { return s.queueWait.Count() == 1 })
	fill(62)
	waitFor(t, "the second job to fill the queue", func() bool { return len(s.jobs) == 1 })

	if _, err := c.FractureBatch(ctx, []geom.Polygon{testShape(64)}, "proto-eda"); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("miss against a full queue: err %v, want 429", err)
	}
	hit := congruentCopy(base, shapecache.Rot90, geom.Pt(1337, -4096))
	resp, err := c.FractureBatch(ctx, []geom.Polygon{hit}, "proto-eda")
	if err != nil {
		t.Fatalf("hit against a full queue: %v", err)
	}
	it := resp.Results[0]
	if !it.CacheHit || it.Error != "" || it.ShotCount != want.ShotCount() || len(it.Shots) != want.ShotCount() {
		t.Fatalf("hit = %+v, want a cache hit with %d shots", it, want.ShotCount())
	}
	if n := s.queueWait.Count(); n != 1 {
		t.Errorf("fracd_queue_wait_seconds has %d samples, want the first filler's 1", n)
	}
	if n := s.rejected.Value(); n != 1 {
		t.Errorf("fracd_requests_rejected_total = %v, want 1", n)
	}
}

// TestE2EMixedBatchOrder sends hits around a miss: every item keeps its
// index, each hit is the cached solution in its own frame, the summary
// counts both kinds, and only the miss is queued and counted as one.
func TestE2EMixedBatchOrder(t *testing.T) {
	s, c := newTestServer(t, Config{Workers: 2, QueueDepth: 8})
	ctx := context.Background()
	base := testL()
	warm(t, s, base, maskfrac.MethodProtoEDA)
	shapes := []geom.Polygon{
		congruentCopy(base, shapecache.MirrorX, geom.Pt(-0.625, 96.5)),
		testShape(70), // the miss
		congruentCopy(base, shapecache.AntiTranspose, geom.Pt(500, 100)),
	}
	resp, err := c.FractureBatch(ctx, shapes, "proto-eda")
	if err != nil {
		t.Fatalf("fracture batch: %v", err)
	}

	// the expected hits: FractureCached's answers for the same copies
	// from a second cache holding the same solution
	ref := maskfrac.NewShapeCache(0)
	if _, _, err := maskfrac.FractureCached(ctx, base, s.cfg.Params, maskfrac.MethodProtoEDA, nil, ref); err != nil {
		t.Fatal(err)
	}
	shots := 0
	for i, it := range resp.Results {
		if it.Index != i || it.Error != "" {
			t.Fatalf("result %d: index %d, error %q", i, it.Index, it.Error)
		}
		if it.CacheHit != (i != 1) {
			t.Errorf("result %d: cache_hit %v", i, it.CacheHit)
		}
		shots += it.ShotCount
		if i == 1 {
			continue
		}
		want, hit, err := maskfrac.FractureCached(ctx, shapes[i], s.cfg.Params, maskfrac.MethodProtoEDA, nil, ref)
		if err != nil || !hit {
			t.Fatalf("reference answer for shape %d: hit %v, err %v", i, hit, err)
		}
		if got, wantWire := it.Shots, maskio.ShotsWire(want.Shots); len(got) != len(wantWire) {
			t.Errorf("result %d: %d shots, want %d", i, len(got), len(wantWire))
		} else {
			for k := range got {
				if got[k] != wantWire[k] {
					t.Errorf("result %d shot %d = %v, want %v", i, k, got[k], wantWire[k])
				}
			}
		}
		if it.FailOn != want.FailOn || it.FailOff != want.FailOff || it.Feasible != want.Feasible() {
			t.Errorf("result %d: fail %d/%d feasible %v, want %d/%d %v",
				i, it.FailOn, it.FailOff, it.Feasible, want.FailOn, want.FailOff, want.Feasible())
		}
	}
	if sum := resp.Summary; sum.Shapes != 3 || sum.Errors != 0 || sum.CacheHits != 2 || sum.Shots != shots {
		t.Errorf("summary = %+v, want 3 shapes, 2 hits, %d shots", sum, shots)
	}
	st := s.cache.Stats()
	if st.Hits != 2 || st.Misses != 2 {
		t.Errorf("cache hits/misses = %d/%d, want 2/2 (the warm-up and the batch's miss)", st.Hits, st.Misses)
	}
	if n := s.queueWait.Count(); n != 1 {
		t.Errorf("fracd_queue_wait_seconds has %d samples, want the miss's 1", n)
	}
	if n := s.mHits.With("proto-eda").Value(); n != 2 {
		t.Errorf("fracd_shape_cache_hits_total = %v, want 2", n)
	}
}

// staircase is a staircase of n steps of a quarter nanometre, 2n+2
// vertices on an n/4 nm square: a shape whose cache lookup (validation,
// canonical form and key) takes far longer than the rest of answering
// it, while its grid stays small.
func staircase(n int) geom.Polygon {
	pg := geom.Polygon{geom.Pt(0, 0), geom.Pt(float64(n)/4, 0)}
	for k := 1; k <= n; k++ {
		pg = append(pg, geom.Pt(float64(n-k+1)/4, float64(k)/4), geom.Pt(float64(n-k)/4, float64(k)/4))
	}
	return pg
}

// attr returns the value of the span attribute k, "" when it is absent.
func attr(w *telemetry.SpanWire, k string) string {
	for _, a := range w.Attrs {
		if a.K == k {
			return a.V
		}
	}
	return ""
}

// TestE2EHitTrace checks a hit's span tree: fracd.fracture holds one
// fracd.shape with the index, method, cache_hit and shots attributes
// and no solver spans, and that span covers the cache lookup, so it
// lasts at least about as long as the same lookup takes on its own.
func TestE2EHitTrace(t *testing.T) {
	s, c := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	const m = maskfrac.Method("test-bounds")
	base := staircase(2400)
	warm(t, s, base, m)
	hit := congruentCopy(base, shapecache.Transpose, geom.Pt(64, 32))

	ref := maskfrac.NewShapeCache(0)
	if _, _, err := maskfrac.FractureCached(context.Background(), base, s.cfg.Params, m, nil, ref); err != nil {
		t.Fatal(err)
	}
	lookup := time.Duration(1 << 62)
	for range 5 {
		start := time.Now()
		if _, ok := ref.Lookup(hit, s.cfg.Params, m, nil); !ok {
			t.Fatal("reference lookup missed")
		}
		lookup = min(lookup, time.Since(start))
	}

	resp, err := c.Do(context.Background(), &Request{
		Shapes:      [][][2]float64{maskio.PolygonWire(testShape(40)), maskio.PolygonWire(hit)},
		Method:      string(m),
		ReturnTrace: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Results[1].CacheHit || resp.Results[0].CacheHit {
		t.Fatalf("cache hits = %v/%v, want the second only", resp.Results[0].CacheHit, resp.Results[1].CacheHit)
	}
	root := resp.Trace
	if root == nil || root.Name != "fracd.fracture" {
		t.Fatalf("trace root = %+v, want fracd.fracture", root)
	}
	var shapes [2]*telemetry.SpanWire
	for _, c := range root.Children {
		if i, err := strconv.Atoi(attr(c, "index")); err == nil && c.Name == "fracd.shape" && i < 2 && shapes[i] == nil {
			shapes[i] = c
			continue
		}
		t.Errorf("unexpected span %s %+v under the root", c.Name, c.Attrs)
	}
	miss, shape := shapes[0], shapes[1]
	if miss == nil || shape == nil {
		t.Fatalf("want one fracd.shape span per shape: %+v", root.Children)
	}
	// the miss was solved inside its one span
	if attr(miss, "cache_hit") != "false" || len(miss.Children) == 0 {
		t.Errorf("the miss's span: cache_hit %q, %d children", attr(miss, "cache_hit"), len(miss.Children))
	}
	for k, want := range map[string]string{"method": string(m), "cache_hit": "true", "shots": strconv.Itoa(resp.Results[1].ShotCount)} {
		if got := attr(shape, k); got != want {
			t.Errorf("fracd.shape %s = %q, want %q", k, got, want)
		}
	}
	if len(shape.Children) != 0 {
		t.Errorf("the hit's span has children %+v; no solver ran", shape.Children)
	}
	if d := time.Duration(shape.DurNS); d < lookup/4 {
		t.Errorf("the hit's span lasts %v, the lookup alone %v: it does not cover the lookup", d, lookup)
	}
}

// BenchmarkFractureHit times one cache-hit /fracture round trip through
// Client.Do and an httptest node: ILT-2 under a D4 image and a dyadic
// shift, after one request for ILT-2 itself has solved it under MBF.
func BenchmarkFractureHit(b *testing.B) {
	s := New(Config{Workers: 1, QueueDepth: 4})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := NewClient(ts.URL)
	ctx := context.Background()
	clip := shapegen.ILTSuite()[1].Target
	if _, err := c.Do(ctx, &Request{Shape: maskio.PolygonWire(clip), Method: "mbf"}); err != nil {
		b.Fatal(err)
	}
	req := &Request{Shape: maskio.PolygonWire(congruentCopy(clip, shapecache.MirrorY, geom.Pt(-0.625, 96.5))), Method: "mbf"}
	b.Run("ILT-2", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			resp, err := c.Do(ctx, req)
			if err != nil || !resp.Results[0].CacheHit {
				b.Fatalf("not a cache hit: %v", err)
			}
		}
	})
}

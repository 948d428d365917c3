package maskfrac

import (
	"context"
	"math"
	"testing"
)

// congruence helpers for cache tests

func translated(pg Polygon, dx, dy float64) Polygon {
	out := make(Polygon, len(pg))
	for i, p := range pg {
		out[i] = Point{X: p.X + dx, Y: p.Y + dy}
	}
	return out
}

func rotated90(pg Polygon) Polygon {
	out := make(Polygon, len(pg))
	for i, p := range pg {
		out[i] = Point{X: -p.Y, Y: p.X}
	}
	return out
}

func mirrored(pg Polygon) Polygon {
	out := make(Polygon, len(pg))
	for i, p := range pg {
		out[i] = Point{X: -p.X, Y: p.Y}
	}
	return out
}

// asymmetricL returns a polygon with no self-symmetry.
func asymmetricL() Polygon {
	return Polygon{
		{X: 0, Y: 0}, {X: 90, Y: 0}, {X: 90, Y: 30},
		{X: 30, Y: 30}, {X: 30, Y: 120}, {X: 0, Y: 120},
	}
}

func TestFractureCachedCongruentShapesSolveOnce(t *testing.T) {
	base := asymmetricL()
	queries := []Polygon{
		base,
		translated(base, 250, -75),
		rotated90(base),
		translated(rotated90(base), -31, 17),
		mirrored(base),
	}
	cache := NewShapeCache(64)
	params := DefaultParams()
	var first *Result
	for i, q := range queries {
		res, hit, err := FractureCached(context.Background(), q, params, MethodProtoEDA, nil, cache)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if (i == 0) == hit {
			t.Errorf("query %d: hit = %v", i, hit)
		}
		if first == nil {
			first = res
			continue
		}
		// congruent queries report identical evaluation and shot count
		if res.ShotCount() != first.ShotCount() {
			t.Errorf("query %d: %d shots, want %d", i, res.ShotCount(), first.ShotCount())
		}
		if res.Feasible() != first.Feasible() || res.FailOn != first.FailOn || res.FailOff != first.FailOff {
			t.Errorf("query %d: eval %d/%d, want %d/%d", i, res.FailOn, res.FailOff, first.FailOn, first.FailOff)
		}
		// returned shots live in the query's frame
		qb := q.Bounds()
		for _, s := range res.Shots {
			if !qb.ContainsRect(Shot(s)) && !qb.Overlaps(Shot(s)) {
				t.Errorf("query %d: shot %v outside query frame %v", i, s, qb)
			}
		}
	}
	st := cache.Stats()
	if st.Misses != 1 || st.Hits != 4 {
		t.Errorf("stats = %+v, want 1 miss / 4 hits", st)
	}
}

// TestFractureCachedLPairsRoundTrip: L-shot pairs stored on a miss come
// back on every congruent hit, with indices valid for the frame-mapped
// shot list (canonicalization preserves shot order).
func TestFractureCachedLPairsRoundTrip(t *testing.T) {
	base := asymmetricL()
	cache := NewShapeCache(64)
	params := DefaultParams()
	miss, hit0, err := FractureCached(context.Background(), base, params, MethodMBFL, nil, cache)
	if err != nil {
		t.Fatal(err)
	}
	if hit0 {
		t.Fatal("first query hit an empty cache")
	}
	if len(miss.LPairs) == 0 {
		t.Fatal("no L-pairs on an L-shaped target")
	}
	for i, q := range []Polygon{translated(base, 500, 500), rotated90(base), mirrored(base)} {
		res, hit, err := FractureCached(context.Background(), q, params, MethodMBFL, nil, cache)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if !hit {
			t.Fatalf("query %d: congruent shape missed", i)
		}
		if len(res.LPairs) != len(miss.LPairs) {
			t.Fatalf("query %d: %d pairs, want %d", i, len(res.LPairs), len(miss.LPairs))
		}
		checkLPairs(t, res)
		if res.FlashCount() != miss.FlashCount() {
			t.Errorf("query %d: flashes %d, want %d", i, res.FlashCount(), miss.FlashCount())
		}
	}
}

func TestFractureCachedMatchesUncachedOnTranslations(t *testing.T) {
	// the solver is exactly translation-invariant (the grid anchors to
	// the shape's bounding box), so cached results for translated
	// duplicates must agree with solving each copy from scratch
	base := asymmetricL()
	targets := []Polygon{
		base,
		translated(base, 1000, 0),
		translated(base, -40, 260.5),
		translated(base, 0.25, -3.75),
	}
	params := DefaultParams()
	cached := FractureBatch(context.Background(), targets, params, MethodProtoEDA, nil, 2, NewShapeCache(16))
	plain := FractureBatch(context.Background(), targets, params, MethodProtoEDA, nil, 2, nil)
	for i := range targets {
		c, p := cached[i], plain[i]
		if c.Err != nil || p.Err != nil {
			t.Fatalf("shape %d: cached err %v, plain err %v", i, c.Err, p.Err)
		}
		if c.Result.FailOn != p.Result.FailOn || c.Result.FailOff != p.Result.FailOff {
			t.Errorf("shape %d: cached eval %d/%d, plain %d/%d",
				i, c.Result.FailOn, c.Result.FailOff, p.Result.FailOn, p.Result.FailOff)
		}
		if c.Result.ShotCount() != p.Result.ShotCount() {
			t.Errorf("shape %d: cached %d shots, plain %d", i, c.Result.ShotCount(), p.Result.ShotCount())
		}
	}
	// in-flight dedup guarantees exactly one solver run even with
	// concurrent workers, so three of the four items are cache hits
	s := Summarize(cached)
	if s.Errors != 0 || s.CacheHits != 3 {
		t.Errorf("summary = %+v, want 3 cache hits", s)
	}
}

func TestFractureCachedNilCache(t *testing.T) {
	res, hit, err := FractureCached(context.Background(), square(70), DefaultParams(), MethodGSC, nil, nil)
	if err != nil || hit {
		t.Fatalf("res err=%v hit=%v", err, hit)
	}
	if res.ShotCount() == 0 {
		t.Error("no shots")
	}
}

func TestFractureCachedDistinctOptionsMiss(t *testing.T) {
	cache := NewShapeCache(16)
	ctx := context.Background()
	target := asymmetricL()
	if _, hit, err := FractureCached(ctx, target, DefaultParams(), MethodMBF, &Options{SkipRefinement: true}, cache); err != nil || hit {
		t.Fatalf("first: hit=%v err=%v", hit, err)
	}
	// same method, different options: must not share the entry
	if _, hit, err := FractureCached(ctx, target, DefaultParams(), MethodMBF, &Options{SkipRefinement: true, MaxIterations: 1}, cache); err != nil || hit {
		t.Fatalf("different options hit the cache: hit=%v err=%v", hit, err)
	}
	// nil options and the zero Options are the same configuration
	if _, hit, err := FractureCached(ctx, target, DefaultParams(), MethodProtoEDA, nil, cache); err != nil || hit {
		t.Fatalf("proto-eda first: hit=%v err=%v", hit, err)
	}
	if _, hit, err := FractureCached(ctx, target, DefaultParams(), MethodProtoEDA, &Options{}, cache); err != nil || !hit {
		t.Fatalf("zero options missed: hit=%v err=%v", hit, err)
	}
	// different params: miss
	p2 := DefaultParams()
	p2.Gamma = 3
	if _, hit, err := FractureCached(ctx, target, p2, MethodProtoEDA, nil, cache); err != nil || hit {
		t.Fatalf("different params hit the cache: hit=%v err=%v", hit, err)
	}
}

func TestFractureCachedError(t *testing.T) {
	cache := NewShapeCache(16)
	bad := Polygon{{X: 0, Y: 0}, {X: 1, Y: 1}}
	if _, _, err := FractureCached(context.Background(), bad, DefaultParams(), MethodGSC, nil, cache); err == nil {
		t.Error("degenerate polygon produced no error")
	}
	if _, _, err := FractureCached(context.Background(), square(60), DefaultParams(), Method("nope"), nil, cache); err == nil {
		t.Error("unknown method produced no error")
	}
	if st := cache.Stats(); st.Entries != 0 {
		t.Errorf("errors were cached: %+v", st)
	}
}

func TestResultRuntimeSplitsSolverAndEval(t *testing.T) {
	prob, err := NewProblem(square(80), DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	res, err := prob.Fracture(MethodGSC, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Runtime <= 0 {
		t.Error("solver runtime not recorded")
	}
	if res.EvalTime <= 0 {
		t.Error("evaluation time not recorded")
	}
}

// TestCacheRejectsNonFiniteTarget checks that a target with a NaN or
// infinite coordinate gets neither a cache key nor a cached answer.
func TestCacheRejectsNonFiniteTarget(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1)} {
		pg := Polygon{{X: 0, Y: 0}, {X: 70, Y: 0}, {X: 70, Y: bad}, {X: 0, Y: 70}}
		if _, err := CacheKeyFor(pg, DefaultParams(), MethodProtoEDA, nil); err == nil {
			t.Errorf("CacheKeyFor keyed a vertex (70, %v)", bad)
		}
		cache := NewShapeCache(4)
		if _, _, err := FractureCached(context.Background(), pg, DefaultParams(), MethodProtoEDA, nil, cache); err == nil {
			t.Errorf("FractureCached answered a vertex (70, %v)", bad)
		}
		if st := cache.Stats(); st.Entries != 0 {
			t.Errorf("vertex (70, %v): %d cache entries, want none", bad, st.Entries)
		}
	}
}

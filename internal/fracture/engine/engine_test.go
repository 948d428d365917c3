package engine_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync/atomic"
	"testing"

	"maskfrac/internal/cover"
	"maskfrac/internal/fracture/engine"
	"maskfrac/internal/geom"

	// register the solvers the tests run through the engine
	_ "maskfrac/internal/fracture/gsc"
	_ "maskfrac/internal/fracture/mbf"
)

// square returns a side×side square with its lower-left corner at (x, y).
func square(x, y, side float64) geom.Polygon {
	return geom.Polygon{
		{X: x, Y: y}, {X: x + side, Y: y},
		{X: x + side, Y: y + side}, {X: x, Y: y + side},
	}
}

func instance(t *testing.T, targets ...geom.Polygon) *cover.Instance {
	t.Helper()
	in, err := cover.NewInstance(targets, cover.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// plan runs Plan on an instance's targets at its interaction radius.
func plan(in *cover.Instance) []engine.Region {
	return engine.Plan(in.Targets, in.InteractionRadius())
}

func TestPlanSingleTarget(t *testing.T) {
	p := instance(t, square(0, 0, 60))
	regions := plan(p)
	if len(regions) != 1 {
		t.Fatalf("regions = %d, want 1", len(regions))
	}
	if !reflect.DeepEqual(regions[0].Targets, []int{0}) {
		t.Errorf("region targets = %v", regions[0].Targets)
	}
}

// TestPlanInteractionRange checks the clustering criterion: targets
// within the interaction range 2·(3σ+γ) share a region, targets beyond
// it split. Default params give 3σ+γ = 3·6.25+2 = 20.75 nm.
func TestPlanInteractionRange(t *testing.T) {
	p := instance(t, square(0, 0, 60))
	r := p.InteractionRadius()
	if r != 3*6.25+2 {
		t.Fatalf("InteractionRadius = %v, want %v", r, 3*6.25+2)
	}

	// 30 nm apart: inside the 41.5 nm interaction range — one region
	near := instance(t, square(0, 0, 60), square(90, 0, 60))
	if regions := plan(near); len(regions) != 1 {
		t.Errorf("near targets: %d regions, want 1", len(regions))
	}

	// 200 nm apart: far outside the range — two regions
	far := instance(t, square(0, 0, 60), square(260, 0, 60))
	regions := plan(far)
	if len(regions) != 2 {
		t.Fatalf("far targets: %d regions, want 2", len(regions))
	}
	if !reflect.DeepEqual(regions[0].Targets, []int{0}) || !reflect.DeepEqual(regions[1].Targets, []int{1}) {
		t.Errorf("regions = %+v", regions)
	}

	// transitivity: A near B, B near C, A far from C — still one region
	chain := instance(t, square(0, 0, 60), square(90, 0, 60), square(180, 0, 60))
	if regions := plan(chain); len(regions) != 1 {
		t.Errorf("chained targets: %d regions, want 1", len(regions))
	}
}

// TestPlanInterleavedTargets checks that Plan keeps every target when a
// region's members are not consecutive in the target list: here the
// last target joins the first region after later regions were opened.
// It compares Plan with the connected components of the inflated-box
// overlap graph, found by a search from each target in order.
func TestPlanInterleavedTargets(t *testing.T) {
	in := instance(t,
		square(0, 0, 50), square(300, 0, 60), square(0, 300, 70),
		square(300, 300, 55), square(90, 0, 60), square(600, 0, 20), square(375, 300, 30),
	)
	regions := plan(in)
	checkPlan(t, in.Targets, in.InteractionRadius(), regions)
	if b := regions[0].Bounds; b != (geom.Rect{X0: 0, Y0: 0, X1: 150, Y1: 60}) {
		t.Errorf("first region bounds %v, want both of its squares'", b)
	}
}

// TestPlanRandomLayouts checks Plan against the component search on
// random squares, with left edges that tie and boxes that only touch.
func TestPlanRandomLayouts(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := range 200 {
		n := 1 + rng.Intn(40)
		targets := make([]geom.Polygon, n)
		for i := range targets {
			// whole multiples of 10 make ties and touching boxes common
			targets[i] = square(float64(10*rng.Intn(40)), float64(10*rng.Intn(40)), float64(10+10*rng.Intn(4)))
		}
		radius := float64(5 * rng.Intn(4))
		if t.Failed() {
			return
		}
		t.Run(fmt.Sprint(trial), func(t *testing.T) { checkPlan(t, targets, radius, engine.Plan(targets, radius)) })
	}
}

// checkPlan compares regions with the connected components of the
// inflated-box overlap graph, found by a search from each target in
// index order, and checks each region's bounds.
func checkPlan(t *testing.T, targets []geom.Polygon, r float64, regions []engine.Region) {
	t.Helper()
	n := len(targets)
	seen := make([]bool, n)
	var want [][]int
	for i := range n {
		if seen[i] {
			continue
		}
		comp, stack := []int{}, []int{i}
		seen[i] = true
		for len(stack) > 0 {
			a := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			comp = append(comp, a)
			for b := range n {
				if !seen[b] && targets[a].Bounds().Inset(-r).Overlaps(targets[b].Bounds().Inset(-r)) {
					seen[b] = true
					stack = append(stack, b)
				}
			}
		}
		sort.Ints(comp)
		want = append(want, comp)
	}
	var got [][]int
	for _, reg := range regions {
		got = append(got, reg.Targets)
		box := geom.Rect{}
		for _, i := range reg.Targets {
			box = box.Union(targets[i].Bounds())
		}
		if reg.Bounds != box {
			t.Errorf("region %v bounds %v, want %v", reg.Targets, reg.Bounds, box)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("regions %v, want %v", got, want)
	}
}

func TestSolveUnknownMethod(t *testing.T) {
	p := instance(t, square(0, 0, 60))
	if _, err := engine.Solve(context.Background(), p, engine.Config{Method: "bogus"}); err == nil {
		t.Fatal("unknown method accepted")
	}
}

// TestSolveUnionOfIndependentSolves is the decomposition-correctness
// property: two targets outside each other's interaction range solved
// through the engine yield the exact concatenation of their
// independently solved shot lists, in region order.
func TestSolveUnionOfIndependentSolves(t *testing.T) {
	a := square(0, 0, 60)
	b := square(260, 280, 70)
	joint := instance(t, a, b)
	run, err := engine.Solve(context.Background(), joint, engine.Config{Method: "gsc", Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(run.Regions) != 2 {
		t.Fatalf("regions = %d, want 2", len(run.Regions))
	}

	fn, ok := engine.Lookup("gsc")
	if !ok {
		t.Fatal("gsc not registered")
	}
	var want []geom.Rect
	for _, target := range []geom.Polygon{a, b} {
		solo := instance(t, target)
		sol, err := fn(context.Background(), solo.Whole(), engine.Options{})
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, sol.Shots...)
	}
	if !reflect.DeepEqual(run.Shots, want) {
		t.Errorf("engine shots differ from the union of independent solves:\n got %v\nwant %v", run.Shots, want)
	}

	// the merged solution is as clean on the joint grid as the
	// independent solves were on theirs
	if st := joint.Whole().Evaluate(run.Shots); st.Fail() != 0 {
		soloFail := 0
		for _, target := range []geom.Polygon{a, b} {
			solo := instance(t, target)
			sol, _ := fn(context.Background(), solo.Whole(), engine.Options{})
			soloFail += solo.Whole().Evaluate(sol.Shots).Fail()
		}
		if st.Fail() != soloFail {
			t.Errorf("joint failing pixels = %d, independent sum = %d", st.Fail(), soloFail)
		}
	}
}

// TestSolveParallelDeterminism is the determinism guard: parallel and
// sequential runs of the same multi-region instance stitch
// byte-identical shot lists.
func TestSolveParallelDeterminism(t *testing.T) {
	p := instance(t,
		square(0, 0, 50), square(300, 0, 60),
		square(0, 300, 70), square(300, 300, 55),
	)
	seq, err := engine.Solve(context.Background(), p, engine.Config{Method: "mbf", Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := engine.Solve(context.Background(), p, engine.Config{Method: "mbf", Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(seq.Regions) != 4 || len(par.Regions) != 4 {
		t.Fatalf("regions = %d/%d, want 4", len(seq.Regions), len(par.Regions))
	}
	if !reflect.DeepEqual(seq.Shots, par.Shots) {
		t.Fatalf("parallel shots differ from sequential:\n seq %v\n par %v", seq.Shots, par.Shots)
	}
	st1, st4 := p.Whole().Evaluate(seq.Shots), p.Whole().Evaluate(par.Shots)
	if st1 != st4 {
		t.Errorf("stats differ: %+v vs %+v", st1, st4)
	}
}

func TestSolveCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for name, p := range map[string]*cover.Instance{
		"multi-region":  instance(t, square(0, 0, 60), square(260, 0, 60)),
		"single-region": instance(t, square(0, 0, 60)),
	} {
		res, err := engine.Solve(ctx, p, engine.Config{Method: "gsc"})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: cancelled context gave error %v, want context.Canceled", name, err)
		}
		if res != nil {
			t.Errorf("%s: cancelled context returned %d shots", name, len(res.Shots))
		}
	}
}

func TestPool(t *testing.T) {
	pool := engine.NewPool(2)
	if !pool.TryAcquire() || !pool.TryAcquire() {
		t.Fatal("pool refused within capacity")
	}
	if pool.TryAcquire() {
		t.Fatal("pool exceeded capacity")
	}
	pool.Release()
	if !pool.TryAcquire() {
		t.Fatal("released token not reusable")
	}

	var nilPool *engine.Pool
	if nilPool.TryAcquire() {
		t.Error("nil pool handed out a token")
	}
	nilPool.Release() // must not panic

	if engine.NewPool(-3).TryAcquire() {
		t.Error("negative pool handed out a token")
	}

	ctx := engine.WithPool(context.Background(), pool)
	if engine.PoolFrom(ctx) != pool {
		t.Error("PoolFrom lost the pool")
	}
	if engine.PoolFrom(context.Background()) != nil {
		t.Error("PoolFrom invented a pool")
	}

	// a limited pool lends at most its own count, each token also
	// taken from the parent, and gives both back on Release
	parent := engine.NewPool(3)
	lim := parent.Limit(2)
	if !lim.TryAcquire() || !lim.TryAcquire() || lim.TryAcquire() {
		t.Fatal("limited pool did not lend exactly its 2 tokens")
	}
	if !parent.TryAcquire() || parent.TryAcquire() {
		t.Fatal("limited pool's tokens are not held in the parent")
	}
	// with the parent exhausted the limit refuses, and keeps no token
	lim.Release()
	if !parent.TryAcquire() {
		t.Fatal("Release did not return the parent's token")
	}
	if lim.TryAcquire() {
		t.Fatal("limited pool lent a token its parent did not have")
	}
	parent.Release()
	if !lim.TryAcquire() {
		t.Fatal("limited pool kept a token after a refused acquire")
	}
	if (*engine.Pool)(nil).Limit(4).TryAcquire() {
		t.Error("limit of a nil pool handed out a token")
	}
}

// TestPoolFan checks the fan-out helper: a zero-token pool runs every
// unit inline on the caller, helpers take only free tokens and give
// every one back, each unit runs exactly once, and a helper's panic is
// re-raised on the caller after the join.
func TestPoolFan(t *testing.T) {
	const units = 64
	drain := func(pool *engine.Pool, slots *[units]int32) int {
		var next atomic.Int64
		return pool.Fan(units-1, func(slot int) {
			for {
				u := next.Add(1) - 1
				if u >= units {
					return
				}
				if !atomic.CompareAndSwapInt32(&slots[u], 0, int32(slot)+1) {
					t.Errorf("unit %d ran twice", u)
				}
			}
		})
	}
	for _, pool := range []*engine.Pool{nil, engine.NewPool(0)} {
		var slots [units]int32
		if n := drain(pool, &slots); n != 1 {
			t.Errorf("zero-token pool ran %d goroutines, want 1", n)
		}
		for u, s := range slots {
			if s != 1 {
				t.Fatalf("zero-token pool: unit %d ran on slot %d, want the caller", u, s-1)
			}
		}
	}

	pool := engine.NewPool(3)
	if !pool.TryAcquire() {
		t.Fatal("fresh pool refused a token")
	}
	var slots [units]int32
	n := drain(pool, &slots)
	if n != 3 {
		t.Errorf("Fan ran %d goroutines with 2 free tokens, want 3", n)
	}
	for u, s := range slots {
		if s < 1 || int(s) > n {
			t.Fatalf("unit %d ran on slot %d, want one of 0..%d", u, s-1, n-1)
		}
	}
	// every token Fan took is back: the two it could take are free
	if !pool.TryAcquire() || !pool.TryAcquire() || pool.TryAcquire() {
		t.Error("Fan did not return every token it took")
	}
	pool.Release()
	pool.Release()
	pool.Release()

	pool = engine.NewPool(1)
	got := func() (r any) {
		defer func() { r = recover() }()
		pool.Fan(1, func(slot int) {
			if slot == 1 {
				panic("helper boom")
			}
		})
		return nil
	}()
	if got != "helper boom" {
		t.Errorf("caller recovered %v, want the helper's panic", got)
	}
	if !pool.TryAcquire() {
		t.Error("panicking helper did not return its token")
	}
}

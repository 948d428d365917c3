package fracserve

import (
	"context"
	"encoding/json"
	"errors"
	"testing"

	"maskfrac/internal/geom"
	"maskfrac/internal/maskio"
	"maskfrac/internal/shapegen"
)

// TestE2EPlanDemoLibrary drives the full stencil-planning path over the
// demo full-mask library: fracture every placement through /fracture
// (one request per placement so the cache counts real placement
// frequencies), then POST /plan and check the plan's acceptance
// properties — within the slot budget, modeled write time strictly
// below the no-CP baseline, per-class savings summing to the reported
// total, and deterministic across runs.
func TestE2EPlanDemoLibrary(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 4, QueueDepth: 64})
	ctx := context.Background()

	lib := shapegen.DemoLibrary(2, 2)
	var wires [][][2]float64
	if err := lib.Walk(func(pl maskio.Placement) error {
		wires = append(wires, maskio.PolygonWire(pl.Polygon))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(wires) != 40 {
		t.Fatalf("demo library placements = %d, want 40", len(wires))
	}
	for _, w := range wires {
		if _, err := c.Do(ctx, &Request{Shape: w, Method: "proto-eda", OmitShots: true}); err != nil {
			t.Fatalf("fracture: %v", err)
		}
	}

	st, err := c.StatsTop(ctx, 0)
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	if len(st.TopClasses) != 10 {
		t.Fatalf("mined classes = %d, want 10", len(st.TopClasses))
	}
	var placements int64
	for _, cl := range st.TopClasses {
		placements += cl.Placements
		if cl.Shots <= 0 || cl.W <= 0 || cl.H <= 0 {
			t.Errorf("class %s missing solution stats: %+v", cl.Key[:8], cl)
		}
	}
	if placements != 40 {
		t.Errorf("Σ class placements = %d, want 40", placements)
	}

	// the demo mask writes in milliseconds, so the stencil must plan
	// with no load overhead to be profitable
	zero := 0.0
	req := &PlanRequest{CP: &CPWire{Slots: 4, LoadOverheadMS: &zero}}
	resp, err := c.Plan(ctx, req)
	if err != nil {
		t.Fatalf("plan: %v", err)
	}
	plan := resp.Plan
	if plan == nil {
		t.Fatal("nil plan")
	}
	if n := len(plan.Characters); n == 0 || n > 4 {
		t.Fatalf("characters = %d, want 1..4", n)
	}
	r := plan.Report
	if r.WithCPWriteMS >= r.BaselineWriteMS {
		t.Errorf("CP write %v ms not below baseline %v ms", r.WithCPWriteMS, r.BaselineWriteMS)
	}
	sum := 0.0
	for _, ch := range plan.Characters {
		sum += ch.SavedMS
	}
	if sum != r.ClassSavedMS {
		t.Errorf("Σ per-class saved %v != reported total %v", sum, r.ClassSavedMS)
	}
	if r.TotalPlacements != 40 {
		t.Errorf("report placements = %d, want 40", r.TotalPlacements)
	}
	if resp.TraceID == "" {
		t.Error("plan response missing trace ID")
	}

	// determinism: the same mined state must replan identically
	again, err := c.Plan(ctx, req)
	if err != nil {
		t.Fatalf("replan: %v", err)
	}
	b1, _ := json.Marshal(plan)
	b2, _ := json.Marshal(again.Plan)
	if string(b1) != string(b2) {
		t.Errorf("replan diverged:\n%s\nvs\n%s", b1, b2)
	}
}

// TestE2EClassUses: POST /stats/classes credits memoized placement
// multiplicities into the class statistics the planner mines.
func TestE2EClassUses(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 2, QueueDepth: 8})
	ctx := context.Background()

	// one real solve establishes the class record with its solution;
	// its params override and option are part of the class key
	params := &ParamsWire{Gamma: 3}
	opts := &OptionsWire{MaxIterations: 40}
	resp, err := c.Do(ctx, &Request{Shape: maskio.PolygonWire(testL()), Method: "proto-eda", Params: params, Options: opts})
	if err != nil {
		t.Fatalf("fracture: %v", err)
	}
	item := resp.Results[0]
	if item.Error != "" {
		t.Fatalf("fracture: %s", item.Error)
	}
	st, err := c.StatsTop(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.TopClasses) != 1 || st.TopClasses[0].Placements != 1 {
		t.Fatalf("classes after one solve = %+v", st.TopClasses)
	}

	// the report carries the shape; the server re-derives the class key
	// from the same method, params and options so the credit lands on
	// the solve's record
	reply, err := c.ReportClassUses(ctx, &ClassUsesRequest{
		Method:  "proto-eda",
		Params:  params,
		Options: opts,
		Classes: []ClassUse{{Shape: maskio.PolygonWire(testL()), Uses: 41}},
	})
	if err != nil {
		t.Fatalf("report class uses: %v", err)
	}
	if reply.Credited != 1 {
		t.Fatalf("credited = %d, want 1", reply.Credited)
	}
	st, err = c.StatsTop(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.TopClasses) != 1 {
		t.Fatalf("credit by shape created a second class record: %+v", st.TopClasses)
	}
	cl := st.TopClasses[0]
	if cl.Placements != 42 {
		t.Errorf("placements after credit = %d, want 42", cl.Placements)
	}
	if cl.Shots != item.ShotCount {
		t.Errorf("credit clobbered the solution stats: %+v", cl)
	}

	// malformed shapes are rejected wholesale
	_, err = c.ReportClassUses(ctx, &ClassUsesRequest{Classes: []ClassUse{{Shape: [][2]float64{{0, 0}, {1, 0}}, Uses: 1}}})
	var se *StatusError
	if !errors.As(err, &se) || se.Code != 400 {
		t.Fatalf("bad shape = %v, want HTTP 400", err)
	}
}

// TestE2ELShotsOnWire: an mbf-l request returns L-shot pairs and flash
// counts on both /fracture and /solve, and the batch summary prices
// flashes.
func TestE2ELShotsOnWire(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 2, QueueDepth: 8})
	ctx := context.Background()

	resp, err := c.Do(ctx, &Request{Shape: maskio.PolygonWire(testL()), Method: "mbf-l"})
	if err != nil {
		t.Fatalf("fracture: %v", err)
	}
	it := resp.Results[0]
	if it.Error != "" {
		t.Fatalf("item error: %s", it.Error)
	}
	if len(it.LPairs) == 0 {
		t.Fatal("mbf-l returned no L-pairs for an L-shaped target")
	}
	if it.FlashCount != it.ShotCount-len(it.LPairs) {
		t.Errorf("flash count %d, want %d", it.FlashCount, it.ShotCount-len(it.LPairs))
	}
	for _, pr := range it.LPairs {
		if pr[0] >= pr[1] || pr[0] < 0 || pr[1] >= it.ShotCount {
			t.Errorf("malformed pair %v over %d shots", pr, it.ShotCount)
		}
	}
	if resp.Summary.Flashes != resp.Summary.Shots-len(it.LPairs) {
		t.Errorf("summary flashes = %d, want %d", resp.Summary.Flashes, resp.Summary.Shots-len(it.LPairs))
	}

	sresp, err := c.SolveShapes(ctx, []geom.Polygon{testL()}, "mbf-l")
	if err != nil {
		t.Fatalf("solve: %v", err)
	}
	if len(sresp.LPairs) == 0 {
		t.Fatal("/solve returned no L-pairs")
	}
	if sresp.FlashCount != sresp.ShotCount-len(sresp.LPairs) {
		t.Errorf("solve flash count %d, want %d", sresp.FlashCount, sresp.ShotCount-len(sresp.LPairs))
	}
}

// TestE2EPlanNoCache: a server running with caching disabled has no
// class statistics to mine and must reject /plan.
func TestE2EPlanNoCache(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1, CacheEntries: -1})
	_, err := c.Plan(context.Background(), &PlanRequest{})
	var se *StatusError
	if !errors.As(err, &se) || se.Code != 400 {
		t.Fatalf("plan on cacheless server = %v, want HTTP 400", err)
	}
}

// TestE2EPlanEmptyCache: planning before any traffic yields the empty
// plan, priced at a zero baseline.
func TestE2EPlanEmptyCache(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1})
	resp, err := c.Plan(context.Background(), &PlanRequest{})
	if err != nil {
		t.Fatalf("plan: %v", err)
	}
	if n := len(resp.Plan.Characters); n != 0 {
		t.Errorf("empty cache planned %d characters", n)
	}
}

package main

import (
	"context"
	"testing"

	"maskfrac/internal/cluster"
	"maskfrac/internal/shapegen"
)

// TestReplayPipeline replays the 8x8 demo mask (640 placements of 10
// congruence classes) on three in-process nodes: the full-mask pipeline
// sends one wire request per class, and its class-use credit makes the
// nodes' class statistics, which -plan mines, count every placement.
// check.sh runs it under -race.
func TestReplayPipeline(t *testing.T) {
	cl, shutdown, err := spawnCluster(3, cluster.Config{
		Method:      "proto-eda",
		MaxInflight: 8,
		Fallbacks:   2,
	}, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown()

	ctx := context.Background()
	rep, err := replay(ctx, cl, shapegen.DemoLibrary(8, 8), 16)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Placements != 640 || rep.Classes != 10 {
		t.Fatalf("replay counted %d placements of %d classes, want 640 of 10", rep.Placements, rep.Classes)
	}
	var requests, misses uint64
	for _, n := range rep.NodeReports {
		requests += n.Requests
		misses += n.CacheMiss
	}
	if requests != 10 || misses != 10 {
		t.Errorf("nodes served %d /fracture requests with %d cache misses, want 10 and 10", requests, misses)
	}

	classes, err := cl.TopClasses(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	var placements int64
	for _, c := range classes {
		placements += c.Placements
	}
	if placements != 640 {
		t.Errorf("node class statistics count %d placements in %d classes, want 640", placements, len(classes))
	}
}

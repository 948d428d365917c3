package engine

import (
	"sync"
	"testing"

	"maskfrac/internal/cover"
	"maskfrac/internal/geom"
)

func schedInstance(t *testing.T, targets ...geom.Polygon) *cover.Instance {
	t.Helper()
	in, err := cover.NewInstance(targets, cover.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func sq(x, y, side float64) geom.Polygon {
	return geom.Polygon{
		{X: x, Y: y}, {X: x + side, Y: y},
		{X: x + side, Y: y + side}, {X: x, Y: y + side},
	}
}

// TestRegionQueueLPTOrder checks the queue hands out regions largest
// estimated cost first, breaking ties on the smaller region index.
func TestRegionQueueLPTOrder(t *testing.T) {
	// well-separated targets: region i == target i
	p := schedInstance(t,
		sq(0, 0, 20),    // small
		sq(500, 0, 80),  // largest
		sq(1000, 0, 40), // middle
		sq(1500, 0, 20), // small, ties with region 0
		sq(2000, 0, 60), // second largest
	)
	regions := Plan(p.Targets, p.InteractionRadius())
	if len(regions) != 5 {
		t.Fatalf("expected 5 regions, got %d", len(regions))
	}
	q := newRegionQueue(regions, p.InteractionRadius(), p.Params.Pitch)
	want := []int{1, 4, 2, 0, 3}
	for n, w := range want {
		i, ok := q.pop()
		if !ok {
			t.Fatalf("queue drained after %d pops, want %d", n, len(want))
		}
		if i != w {
			t.Fatalf("pop %d: got region %d, want %d (order %v)", n, i, w, q.order)
		}
	}
	if _, ok := q.pop(); ok {
		t.Fatal("queue did not report drained")
	}
}

// TestRegionQueueConcurrentPop checks every region is handed out
// exactly once under concurrent popping.
func TestRegionQueueConcurrentPop(t *testing.T) {
	targets := make([]geom.Polygon, 32)
	for i := range targets {
		targets[i] = sq(float64(i)*400, 0, 20+float64(i%7)*10)
	}
	p := schedInstance(t, targets...)
	regions := Plan(p.Targets, p.InteractionRadius())
	q := newRegionQueue(regions, p.InteractionRadius(), p.Params.Pitch)
	var mu sync.Mutex
	seen := make(map[int]int)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i, ok := q.pop()
				if !ok {
					return
				}
				mu.Lock()
				seen[i]++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if len(seen) != len(regions) {
		t.Fatalf("popped %d distinct regions, want %d", len(seen), len(regions))
	}
	for i, n := range seen {
		if n != 1 {
			t.Fatalf("region %d popped %d times", i, n)
		}
	}
}

package fracserve

import (
	"context"
	"runtime"
	"sync"
	"testing"

	"maskfrac/internal/cover"
	"maskfrac/internal/fracture/engine"
	"maskfrac/internal/geom"
	"maskfrac/internal/maskio"
)

// poolProbe records, for every solve of the "test-pool-probe" method,
// the engine pool its ctx carries and how many of that pool's tokens
// were free while it ran.
var poolProbe struct {
	mu    sync.Mutex
	pools []*engine.Pool
	free  []int
}

func init() {
	engine.Register("test-pool-probe", func(ctx context.Context, p *cover.Problem, _ engine.Options) (*engine.Solution, error) {
		pool := engine.PoolFrom(ctx)
		free := 0
		for pool.TryAcquire() {
			free++
		}
		for range free {
			pool.Release()
		}
		poolProbe.mu.Lock()
		poolProbe.pools = append(poolProbe.pools, pool)
		poolProbe.free = append(poolProbe.free, free)
		poolProbe.mu.Unlock()
		return &engine.Solution{Shots: []geom.Rect{p.TargetBounds()}}, nil
	})
}

// TestServerSharesOnePool checks that every job of every request
// solves under the server's one pool of GOMAXPROCS tokens, and that a
// worker holds one of them while it solves.
func TestServerSharesOnePool(t *testing.T) {
	s, c := newTestServer(t, Config{Workers: 1, QueueDepth: 16, CacheEntries: -1})
	poolProbe.mu.Lock()
	poolProbe.pools, poolProbe.free = nil, nil
	poolProbe.mu.Unlock()
	ctx := context.Background()
	const requests, shapes = 2, 3
	for r := range requests {
		batch := make([]geom.Polygon, shapes)
		for i := range batch {
			batch[i] = testShape(float64(40 + 10*(r*shapes+i)))
		}
		resp, err := c.FractureBatch(ctx, batch, "test-pool-probe")
		if err != nil {
			t.Fatal(err)
		}
		for _, it := range resp.Results {
			if it.Error != "" {
				t.Fatalf("request %d shape %d: %s", r, it.Index, it.Error)
			}
		}
	}
	poolProbe.mu.Lock()
	defer poolProbe.mu.Unlock()
	if len(poolProbe.pools) != requests*shapes {
		t.Fatalf("probe ran %d solves, want %d", len(poolProbe.pools), requests*shapes)
	}
	if got, want := s.pool.Extra(), runtime.GOMAXPROCS(0); got != want {
		t.Errorf("server pool has %d tokens, want GOMAXPROCS = %d", got, want)
	}
	for k, pool := range poolProbe.pools {
		if pool != s.pool {
			t.Errorf("solve %d ran under pool %p, not the server's %p", k, pool, s.pool)
		}
		// one worker is busy and holds a token: the rest are free
		if got, want := poolProbe.free[k], s.pool.Extra()-1; got != want {
			t.Errorf("solve %d saw %d free tokens, want %d", k, got, want)
		}
	}
	if t.Failed() {
		t.Logf("free tokens per solve: %v", poolProbe.free)
	}
}

// TestSolveSharesServerPool checks that a /solve request takes its
// helpers from the server's pool, at most Workers−1 of them, and
// holds a server token while it solves.
func TestSolveSharesServerPool(t *testing.T) {
	s, c := newTestServer(t, Config{Workers: 4, QueueDepth: 4, CacheEntries: -1})
	g := runtime.GOMAXPROCS(0)
	wires := [][][2]float64{maskio.PolygonWire(testShape(60))}
	for _, tc := range []struct {
		name           string
		workers, taken int // request cap; server tokens held elsewhere
		want           int // free tokens the solve sees
	}{
		{"workers=1", 1, 0, 0},
		{"workers=4", 4, 0, min(3, g-1)},
		{"server pool exhausted", 4, g, 0},
	} {
		poolProbe.mu.Lock()
		poolProbe.pools, poolProbe.free = nil, nil
		poolProbe.mu.Unlock()
		for range tc.taken {
			if !s.pool.TryAcquire() {
				t.Fatalf("%s: server pool refused a token", tc.name)
			}
		}
		_, err := c.Solve(context.Background(), &SolveRequest{
			Shapes: wires, Method: "test-pool-probe", Workers: tc.workers,
		})
		for range tc.taken {
			s.pool.Release()
		}
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		poolProbe.mu.Lock()
		if len(poolProbe.free) != 1 {
			t.Fatalf("%s: probe ran %d solves, want 1", tc.name, len(poolProbe.free))
		}
		if got := poolProbe.free[0]; got != tc.want {
			t.Errorf("%s: solve saw %d free tokens, want %d", tc.name, got, tc.want)
		}
		poolProbe.mu.Unlock()
	}
	// every token is back once the requests are done
	for range g {
		if !s.pool.TryAcquire() {
			t.Fatal("a /solve request kept a server token")
		}
	}
	for range g {
		s.pool.Release()
	}
}

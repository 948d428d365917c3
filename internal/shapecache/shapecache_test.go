package shapecache

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"maskfrac/internal/geom"
)

// lShape is an asymmetric test polygon (no self-symmetry, so all eight
// transforms produce distinct vertex sets).
func lShape() geom.Polygon {
	return geom.Polygon{
		{X: 0, Y: 0}, {X: 30, Y: 0}, {X: 30, Y: 10},
		{X: 10, Y: 10}, {X: 10, Y: 40}, {X: 0, Y: 40},
	}
}

func TestCanonicalizeInvariantUnderCongruence(t *testing.T) {
	base := lShape()
	want := Canonicalize(base)
	for tr := Identity; tr < numTransforms; tr++ {
		for _, d := range []geom.Point{{X: 0, Y: 0}, {X: 137, Y: -41}, {X: -9, Y: 1024}} {
			q := transformPoly(base, tr).Translate(d)
			got := Canonicalize(q)
			if !samePoly(got.Poly, want.Poly) {
				t.Errorf("transform %d offset %v: canonical poly differs", tr, d)
			}
			if got.KeyWith(nil) != want.KeyWith(nil) {
				t.Errorf("transform %d offset %v: key differs", tr, d)
			}
		}
	}
}

func TestCanonicalizeInvariantUnderVertexOrder(t *testing.T) {
	base := lShape()
	want := Canonicalize(base).KeyWith(nil)
	// rotate the start vertex
	for s := 1; s < len(base); s++ {
		rot := append(base[s:].Clone(), base[:s]...)
		if Canonicalize(rot).KeyWith(nil) != want {
			t.Errorf("start vertex %d: key differs", s)
		}
	}
	// reverse orientation
	rev := make(geom.Polygon, len(base))
	for i, p := range base {
		rev[len(base)-1-i] = p
	}
	if Canonicalize(rev).KeyWith(nil) != want {
		t.Error("reversed orientation: key differs")
	}
}

func TestCanonicalizeDistinguishesShapes(t *testing.T) {
	a := Canonicalize(lShape()).KeyWith(nil)
	bigger := lShape().Translate(geom.Pt(0, 0))
	bigger[1].X = 31 // not congruent
	b := Canonicalize(bigger).KeyWith(nil)
	if a == b {
		t.Error("non-congruent shapes share a key")
	}
	if a == Canonicalize(lShape()).KeyWith([]byte("other-params")) {
		t.Error("different extra bytes share a key")
	}
}

func TestShotRoundTripThroughCanonicalFrame(t *testing.T) {
	base := lShape()
	shots := []geom.Rect{{X0: 0, Y0: 0, X1: 30, Y1: 10}, {X0: 0, Y0: 10, X1: 10, Y1: 40}}
	for tr := Identity; tr < numTransforms; tr++ {
		q := transformPoly(base, tr).Translate(geom.Pt(55, -13))
		c := Canonicalize(q)
		// the canonical solution for every congruent query is identical
		canonBase := Canonicalize(base)
		canonShots := canonBase.ToCanonical(shots)
		back := c.FromCanonical(canonShots)
		// shots mapped into q's frame must tile q exactly: same total
		// area, all inside q's bounds
		var area float64
		bounds := q.Bounds()
		for _, s := range back {
			area += s.Area()
			if !bounds.ContainsRect(s) {
				t.Errorf("transform %d: shot %v outside bounds %v", tr, s, bounds)
			}
		}
		if want := q.Area(); area != want {
			t.Errorf("transform %d: shot area %g, want %g", tr, area, want)
		}
	}
}

func TestTransformRectInverse(t *testing.T) {
	r := geom.Rect{X0: 1, Y0: 2, X1: 7, Y1: 11}
	for tr := Identity; tr < numTransforms; tr++ {
		back := tr.Inverse().ApplyRect(tr.ApplyRect(r))
		if back != r {
			t.Errorf("transform %d: round trip %v != %v", tr, back, r)
		}
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := New(2)
	keys := make([]Key, 3)
	for i := range keys {
		pg := lShape().Translate(geom.Pt(float64(i), 0))
		pg[1].X += float64(i) // make the classes distinct
		keys[i] = Canonicalize(pg).KeyWith(nil)
	}
	c.Put(keys[0], &Entry{Bytes: 100})
	c.Put(keys[1], &Entry{Bytes: 100})
	if _, ok := c.Get(keys[0]); !ok { // key0 now most recent
		t.Fatal("key0 missing")
	}
	c.Put(keys[2], &Entry{Bytes: 100}) // evicts key1
	if _, ok := c.Get(keys[1]); ok {
		t.Error("key1 survived eviction")
	}
	if _, ok := c.Get(keys[0]); !ok {
		t.Error("key0 evicted out of LRU order")
	}
	st := c.Stats()
	if st.Evictions != 1 || st.Entries != 2 || st.Bytes != 200 {
		t.Errorf("stats = %+v", st)
	}
}

func TestCacheDoDedupsConcurrentCompute(t *testing.T) {
	c := New(16)
	k := Canonicalize(lShape()).KeyWith(nil)
	var computes atomic.Int64
	var hits atomic.Int64
	release := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e, hit, err := c.Do(context.Background(), k, func() (*Entry, error) {
				computes.Add(1)
				<-release
				return &Entry{Bytes: 1}, nil
			})
			if err != nil || e == nil {
				t.Errorf("Do: %v", err)
			}
			if hit {
				hits.Add(1)
			}
		}()
	}
	// let all goroutines reach Do before releasing the computation
	for computes.Load() == 0 {
	}
	close(release)
	wg.Wait()
	if got := computes.Load(); got != 1 {
		t.Errorf("compute ran %d times, want 1", got)
	}
	if got := hits.Load(); got != 7 {
		t.Errorf("hits = %d, want 7", got)
	}
}

func TestCacheDoErrorNotCached(t *testing.T) {
	c := New(16)
	k := Canonicalize(lShape()).KeyWith(nil)
	boom := errors.New("boom")
	_, _, err := c.Do(context.Background(), k, func() (*Entry, error) { return nil, boom })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	var ran bool
	_, hit, err := c.Do(context.Background(), k, func() (*Entry, error) {
		ran = true
		return &Entry{}, nil
	})
	if err != nil || hit || !ran {
		t.Errorf("after error: hit=%v ran=%v err=%v", hit, ran, err)
	}
}

func TestCacheDoContextCancelledWaiter(t *testing.T) {
	c := New(16)
	k := Canonicalize(lShape()).KeyWith(nil)
	started := make(chan struct{})
	release := make(chan struct{})
	go c.Do(context.Background(), k, func() (*Entry, error) {
		close(started)
		<-release
		return &Entry{}, nil
	})
	<-started
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := c.Do(ctx, k, func() (*Entry, error) { return &Entry{}, nil })
	close(release)
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

// doneProbe is a live context that reports the first call of Done: a
// Do waiter calls it once it has joined an in-flight computation.
type doneProbe struct {
	context.Context
	joined chan struct{}
	once   sync.Once
}

func (p *doneProbe) Done() <-chan struct{} {
	p.once.Do(func() { close(p.joined) })
	return p.Context.Done()
}

// TestCacheDoLeaderCancelNotInherited: a waiter whose own context is
// live does not inherit the context error of a leader that gave up; it
// looks the key up again, computes the entry itself and succeeds.
func TestCacheDoLeaderCancelNotInherited(t *testing.T) {
	c := New(16)
	k := Canonicalize(lShape()).KeyWith(nil)
	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	started := make(chan struct{})
	leaderErr := make(chan error, 1)
	go func() {
		_, _, err := c.Do(leaderCtx, k, func() (*Entry, error) {
			close(started)
			<-leaderCtx.Done()
			return nil, leaderCtx.Err()
		})
		leaderErr <- err
	}()
	<-started

	waiter := &doneProbe{Context: context.Background(), joined: make(chan struct{})}
	type result struct {
		e   *Entry
		hit bool
		err error
	}
	waiterDone := make(chan result, 1)
	go func() {
		e, hit, err := c.Do(waiter, k, func() (*Entry, error) { return &Entry{Bytes: 1}, nil })
		waiterDone <- result{e, hit, err}
	}()
	<-waiter.joined
	cancelLeader()

	if err := <-leaderErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("leader err = %v, want context.Canceled", err)
	}
	r := <-waiterDone
	if r.err != nil {
		t.Fatalf("waiter inherited the leader's failure: %v", r.err)
	}
	if r.e == nil || r.hit {
		t.Errorf("waiter got entry %v, hit %v; want its own computed entry", r.e, r.hit)
	}
	if c.Len() != 1 {
		t.Errorf("cache holds %d entries, want the waiter's one", c.Len())
	}
}

func TestCacheConcurrentMixedAccess(t *testing.T) {
	c := New(8)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				pg := lShape()
				pg[1].X = float64(20 + (g+i)%12)
				k := Canonicalize(pg).KeyWith(nil)
				if _, ok := c.Get(k); !ok {
					c.Put(k, &Entry{Bytes: int64(i)})
				}
				c.Stats()
			}
		}(g)
	}
	wg.Wait()
	if c.Len() > 8 {
		t.Errorf("cache over bound: %d", c.Len())
	}
}

func samePoly(a, b geom.Polygon) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func ExampleCanonicalize() {
	q := lShape().Translate(geom.Pt(100, 200))
	c := Canonicalize(q)
	fmt.Println(len(c.Poly) == len(q), c.Poly.Bounds().X0, c.Poly.Bounds().Y0)
	// Output: true 0 0
}

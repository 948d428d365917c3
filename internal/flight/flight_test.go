package flight

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// joinSignal returns a lookup that always misses and closes the
// returned channel the first time it runs. A caller whose lookup ran
// while another call for its key was in flight has joined that call:
// both happen under the group's lock.
func joinSignal() (func() (int, bool), <-chan struct{}) {
	ch := make(chan struct{})
	var once sync.Once
	return func() (int, bool) {
		once.Do(func() { close(ch) })
		return 0, false
	}, ch
}

// TestDoOneCallPerKey hammers many keys from many goroutines with a
// lookup that fn fills: every key runs fn exactly once, however the
// callers interleave with the store and the call's removal.
func TestDoOneCallPerKey(t *testing.T) {
	const keys, goroutines, rounds = 32, 16, 200
	var (
		g      Group[int, int]
		mu     sync.Mutex
		stored = make(map[int]int)
		runs   [keys]atomic.Int64
		wg     sync.WaitGroup
	)
	for gi := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range rounds {
				k := (gi*7 + r) % keys
				v, _, err := g.Do(context.Background(), k, func() (int, bool) {
					mu.Lock()
					defer mu.Unlock()
					v, ok := stored[k]
					return v, ok
				}, func() (int, error) {
					runs[k].Add(1)
					runtime.Gosched()
					mu.Lock()
					stored[k] = k * k
					mu.Unlock()
					return k * k, nil
				})
				if err != nil || v != k*k {
					t.Errorf("key %d: got %d, %v", k, v, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	for k := range keys {
		if n := runs[k].Load(); n != 1 {
			t.Errorf("key %d ran fn %d times, want 1", k, n)
		}
	}
}

// TestDoJoinerSkipsLeaderCancel: a joiner whose ctx is live does not
// inherit the leader's context error; it leads a call of its own.
func TestDoJoinerSkipsLeaderCancel(t *testing.T) {
	var g Group[string, int]
	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	leaderIn := make(chan struct{})
	leaderErr := make(chan error, 1)
	go func() {
		_, _, err := g.Do(leaderCtx, "k", nil, func() (int, error) {
			close(leaderIn)
			<-leaderCtx.Done()
			return 0, leaderCtx.Err()
		})
		leaderErr <- err
	}()
	<-leaderIn
	lookup, joining := joinSignal()
	type result struct {
		v      int
		joined bool
		err    error
	}
	joiner := make(chan result, 1)
	go func() {
		v, joined, err := g.Do(context.Background(), "k", lookup, func() (int, error) { return 42, nil })
		joiner <- result{v, joined, err}
	}()
	<-joining
	cancelLeader()
	if err := <-leaderErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("leader err = %v, want context.Canceled", err)
	}
	if r := <-joiner; r.err != nil || r.v != 42 || r.joined {
		t.Errorf("joiner got %d, joined=%v, err=%v; want its own 42", r.v, r.joined, r.err)
	}
}

// TestDoCancelledJoiner: a joiner that gives up returns its own ctx
// error at once and leaves the leader's call running.
func TestDoCancelledJoiner(t *testing.T) {
	var g Group[string, int]
	release := make(chan struct{})
	leaderIn := make(chan struct{})
	leader := make(chan int, 1)
	go func() {
		v, _, _ := g.Do(context.Background(), "k", nil, func() (int, error) {
			close(leaderIn)
			<-release
			return 7, nil
		})
		leader <- v
	}()
	<-leaderIn
	ctx, cancel := context.WithCancel(context.Background())
	lookup, joining := joinSignal()
	joinerErr := make(chan error, 1)
	go func() {
		_, joined, err := g.Do(ctx, "k", lookup, func() (int, error) {
			t.Error("cancelled joiner ran fn")
			return 0, nil
		})
		if joined {
			t.Error("cancelled joiner reports joined")
		}
		joinerErr <- err
	}()
	<-joining
	cancel()
	if err := <-joinerErr; !errors.Is(err, context.Canceled) {
		t.Errorf("joiner err = %v, want context.Canceled", err)
	}
	close(release)
	if v := <-leader; v != 7 {
		t.Errorf("leader got %d, want 7", v)
	}
}

// TestDoPanicReleasesJoiners: a panicking fn hands its joiners an error
// that names the panic, re-panics on the leader, and leaves no call
// behind.
func TestDoPanicReleasesJoiners(t *testing.T) {
	var g Group[string, int]
	release := make(chan struct{})
	leaderIn := make(chan struct{})
	recovered := make(chan any, 1)
	go func() {
		defer func() { recovered <- recover() }()
		g.Do(context.Background(), "k", nil, func() (int, error) {
			close(leaderIn)
			<-release
			panic("zz boom")
		})
	}()
	<-leaderIn
	lookup, joining := joinSignal()
	type result struct {
		joined bool
		err    error
	}
	joiner := make(chan result, 1)
	go func() {
		_, joined, err := g.Do(context.Background(), "k", lookup, func() (int, error) {
			t.Error("joiner of a panicking leader ran fn")
			return 0, nil
		})
		joiner <- result{joined, err}
	}()
	<-joining
	close(release)
	if r := <-recovered; r != "zz boom" {
		t.Errorf("leader recovered %v, want the fn's panic", r)
	}
	if r := <-joiner; r.err == nil || !strings.Contains(r.err.Error(), "zz boom") || !r.joined {
		t.Errorf("joiner joined=%v err=%v; want the leader's panic as an error", r.joined, r.err)
	}
	v, joined, err := g.Do(context.Background(), "k", nil, func() (int, error) { return 3, nil })
	if v != 3 || joined || err != nil {
		t.Errorf("after the panic: %d, joined=%v, err=%v; want a fresh call", v, joined, err)
	}
}

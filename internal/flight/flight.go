// Package flight is the single-flight protocol behind the shape cache,
// the cluster client and the pipeline's class memo: at most one call
// per key runs at a time, and concurrent callers of the key share it.
package flight

import (
	"context"
	"errors"
	"fmt"
	"sync"
)

// Group coalesces calls by key. The zero value is ready to use.
type Group[K comparable, V any] struct {
	mu    sync.Mutex
	calls map[K]*call[V]
}

type call[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// Do returns the value for key. lookup, when non-nil, runs under the
// group's lock before the caller joins or leads a call, and a hit is
// returned as is; it must be quick and must not call the group.
// Otherwise the caller joins the call in flight for key or leads one
// that runs fn. fn stores a value it wants found where lookup finds it:
// the call leaves the group only after fn returns, so two callers never
// both miss and both run fn.
//
// joined reports that v and err are another caller's fn outcome.
// Errors are not kept. A joiner whose ctx is done returns ctx.Err(); one
// whose ctx is live starts over when the leader failed with a context
// error. If fn panics, its joiners get an error naming the panic and the
// panic continues on the leader's goroutine.
func (g *Group[K, V]) Do(ctx context.Context, key K, lookup func() (V, bool), fn func() (V, error)) (v V, joined bool, err error) {
	for {
		g.mu.Lock()
		if lookup != nil {
			if v, ok := lookup(); ok {
				g.mu.Unlock()
				return v, false, nil
			}
		}
		if c, ok := g.calls[key]; ok {
			g.mu.Unlock()
			select {
			case <-c.done:
			case <-ctx.Done():
				return v, false, ctx.Err()
			}
			if c.err != nil && ctx.Err() == nil &&
				(errors.Is(c.err, context.Canceled) || errors.Is(c.err, context.DeadlineExceeded)) {
				continue
			}
			return c.val, true, c.err
		}
		if g.calls == nil {
			g.calls = make(map[K]*call[V])
		}
		c := &call[V]{done: make(chan struct{})}
		g.calls[key] = c
		g.mu.Unlock()
		g.lead(key, c, fn)
		return c.val, false, c.err
	}
}

// lead runs fn for c and releases c's joiners however fn ends.
func (g *Group[K, V]) lead(key K, c *call[V], fn func() (V, error)) {
	returned := false
	defer func() {
		var r any
		if !returned {
			r = recover()
			c.err = fmt.Errorf("flight: leader panicked: %v", r)
		}
		g.mu.Lock()
		delete(g.calls, key)
		g.mu.Unlock()
		close(c.done)
		if r != nil {
			panic(r)
		}
	}()
	c.val, c.err = fn()
	returned = true
}

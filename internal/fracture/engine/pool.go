package engine

import (
	"context"
	"sync"
)

// Pool bounds the number of extra solver goroutines a process may run
// beyond the goroutines that already carry work. Batch-level solving
// (one goroutine per shape), region-level solving (one goroutine per
// independent region) and the fan-outs inside one solve draw tokens
// from the same pool, so nesting them never oversubscribes the
// configured worker budget.
//
// Acquisition is strictly non-blocking: a caller that gets no token
// runs the work inline on its own goroutine. A token holder therefore
// never waits on another token, which makes the pool deadlock-free
// under arbitrary nesting. A nil *Pool hands out nothing.
type Pool struct {
	sem    chan struct{}
	parent *Pool // set by Limit: each token lent also holds one of parent's
}

// NewPool returns a pool of extra goroutine tokens; extra <= 0 yields a
// pool that always refuses, serializing all work onto its callers.
func NewPool(extra int) *Pool {
	if extra < 0 {
		extra = 0
	}
	return &Pool{sem: make(chan struct{}, extra)}
}

// Limit returns a pool that lends at most extra tokens, each of which
// it also takes from p: a run under it shares p's budget with a cap of
// its own. The limit of a nil pool is nil.
func (p *Pool) Limit(extra int) *Pool {
	if p == nil {
		return nil
	}
	q := NewPool(extra)
	q.parent = p
	return q
}

// TryAcquire takes a token without blocking and reports whether it got
// one. Every successful TryAcquire must be paired with Release.
func (p *Pool) TryAcquire() bool {
	if p == nil || cap(p.sem) == 0 {
		return false
	}
	select {
	case p.sem <- struct{}{}:
	default:
		return false
	}
	if p.parent != nil && !p.parent.TryAcquire() {
		<-p.sem
		return false
	}
	return true
}

// Release returns a token taken with TryAcquire.
func (p *Pool) Release() {
	if p == nil || cap(p.sem) == 0 {
		return
	}
	p.parent.Release()
	<-p.sem
}

// Extra returns the pool's token capacity.
func (p *Pool) Extra() int {
	if p == nil {
		return 0
	}
	return cap(p.sem)
}

// Fan runs work on the calling goroutine and on one helper goroutine
// for each token, up to extra, that it can take without blocking, and
// returns once every call has returned and every token is back. Each
// call gets its own slot — 0 on the caller, 1 to n−1 on the helpers —
// and Fan returns n, so the caller can fold per-slot state afterwards.
// The calls typically drain a shared work cursor: with no token free
// the caller does all the work inline. A helper's panic is re-raised
// on the caller after the join.
func (p *Pool) Fan(extra int, work func(slot int)) int {
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		panicked bool
		pval     any
	)
	n := 1
	for ; n <= extra && p.TryAcquire(); n++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			defer p.Release()
			defer func() {
				if r := recover(); r != nil {
					mu.Lock()
					if !panicked {
						panicked, pval = true, r
					}
					mu.Unlock()
				}
			}()
			work(slot)
		}(n)
	}
	func() {
		// join the helpers even when the caller's own share panics
		defer wg.Wait()
		work(0)
	}()
	if panicked {
		panic(pval)
	}
	return n
}

type poolKey struct{}

// WithPool attaches a pool to the context. Engine solves under this
// context claim their extra parallelism from it instead of creating
// their own, so an enclosing batch and its nested region solves share
// one bounded budget.
func WithPool(ctx context.Context, p *Pool) context.Context {
	return context.WithValue(ctx, poolKey{}, p)
}

// PoolFrom returns the pool attached to ctx, or nil.
func PoolFrom(ctx context.Context) *Pool {
	p, _ := ctx.Value(poolKey{}).(*Pool)
	return p
}

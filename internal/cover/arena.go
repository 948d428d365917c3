// Per-instance buffer arenas: the dose grid, failing and live pixel
// bitmaps, edge tables and accumulation scratch of an evaluator are
// the dominant allocations of a cache-miss solve, and the refinement
// loops of every heuristic construct evaluators repeatedly (polish
// candidates, removal trials, merge passes). An Arena recycles those
// buffers within one Instance, so a solve's steady state allocates
// nothing, and they are freed with the instance.
package cover

import (
	"sync"
	"sync/atomic"
)

// Process-wide arena reuse counters, exported to /metrics by the
// fracturing service (fracd_eval_arena_*).
var (
	arenaHitsTotal        atomic.Int64
	arenaMissesTotal      atomic.Int64
	arenaBytesReusedTotal atomic.Int64
)

// ArenaStats is a snapshot of the process-wide arena reuse counters:
// how many buffer acquisitions were served from a free list (Hits) vs
// freshly allocated (Misses), and how many bytes the hits reused.
type ArenaStats struct {
	Hits        int64
	Misses      int64
	BytesReused int64
}

// ArenaCounters returns the current process-wide arena reuse totals.
func ArenaCounters() ArenaStats {
	return ArenaStats{
		Hits:        arenaHitsTotal.Load(),
		Misses:      arenaMissesTotal.Load(),
		BytesReused: arenaBytesReusedTotal.Load(),
	}
}

// arenaListCap bounds each free list; an evaluator holds one dose
// field, two fail bitmaps, one live bitmap and two scratch slices, so a
// handful of retained buffers covers the construct-close-construct
// churn of the refinement loops without hoarding.
const arenaListCap = 8

// An Arena recycles the large buffers behind cover evaluators. Each
// Instance owns one: every problem sampled from it and every
// EvaluateParts window draws from it. Buffers flow out through the get
// methods (NewEval, Problem.Evaluate, EvaluateParts) and back in
// through Eval.Close; the free lists are mutex-guarded because the
// regions of one instance may be solved concurrently. The zero value
// is ready to use.
type Arena struct {
	mu   sync.Mutex
	f64  [][]float64
	f32  [][]float32
	bits [][]bool
	u64  [][]uint64
}

// getF64 returns a zeroed []float64 of length n.
func (a *Arena) getF64(n int) []float64 { return take(a, &a.f64, n, 8) }

// getF32 returns a zeroed []float32 of length n.
func (a *Arena) getF32(n int) []float32 { return take(a, &a.f32, n, 4) }

// getBits returns a zeroed []bool of length n.
func (a *Arena) getBits(n int) []bool { return take(a, &a.bits, n, 1) }

// getU64 returns a zeroed []uint64 of length n (bit-packed bitmaps).
func (a *Arena) getU64(n int) []uint64 { return take(a, &a.u64, n, 8) }

// putF64 returns a buffer to the free list.
func (a *Arena) putF64(s []float64) { give(a, &a.f64, s) }

// putF32 returns a buffer to the free list.
func (a *Arena) putF32(s []float32) { give(a, &a.f32, s) }

// putBits returns a buffer to the free list.
func (a *Arena) putBits(s []bool) { give(a, &a.bits, s) }

// putU64 returns a buffer to the free list.
func (a *Arena) putU64(s []uint64) { give(a, &a.u64, s) }

// take returns a zeroed slice of length n from the free list, reusing
// a buffer when one is large enough (elem is the element size, for the
// bytes-reused counter) and allocating otherwise.
func take[T any](a *Arena, list *[][]T, n int, elem int64) []T {
	a.mu.Lock()
	l := *list
	for i := len(l) - 1; i >= 0; i-- {
		if s := l[i]; cap(s) >= n {
			l[i] = l[len(l)-1]
			*list = l[:len(l)-1]
			a.mu.Unlock()
			arenaHitsTotal.Add(1)
			arenaBytesReusedTotal.Add(elem * int64(n))
			s = s[:n]
			clear(s)
			return s
		}
	}
	a.mu.Unlock()
	arenaMissesTotal.Add(1)
	return make([]T, n)
}

// give returns a buffer to the free list (nil and zero-capacity slices
// are dropped, as are buffers beyond the list cap).
func give[T any](a *Arena, list *[][]T, s []T) {
	if cap(s) == 0 {
		return
	}
	a.mu.Lock()
	if len(*list) < arenaListCap {
		*list = append(*list, s[:0])
	}
	a.mu.Unlock()
}

// Package engine runs the decompose–solve–stitch fracturing pipeline:
// Plan clusters an instance's targets into provably independent regions
// from their bounds (the truncated proximity kernel makes the model
// strictly local), Solve samples each region as its own cover.Problem
// and runs it through a registered solver on a bounded worker pool, and
// the stitch step merges the per-region shot lists in deterministic
// region order.
//
// The package also owns the solver registry: each fracturing heuristic
// registers itself in its package init under the method name the public
// facade exposes, so new heuristics plug in without touching the
// facade's dispatch.
package engine

import (
	"context"
	"sort"
	"sync"

	"maskfrac/internal/cover"
	"maskfrac/internal/geom"
	"maskfrac/internal/graphx"
)

// Options carries the method-generic solver knobs the facade exposes.
// Each solver maps the fields it understands onto its own option set
// and ignores the rest; zero values select every method's defaults.
type Options struct {
	// MaxIterations bounds the refinement loop of "mbf" and the shot
	// caps of the dictionary baselines.
	MaxIterations int
	// Order selects the greedy coloring order of "mbf".
	Order graphx.Order
	// SkipRefinement stops "mbf" after the coloring stage.
	SkipRefinement bool
}

// Solution is one solver run's output for one prepared problem.
type Solution struct {
	Shots []geom.Rect
	// Pairs lists L-shot pairs of Shots as {i, j} index pairs with
	// i < j: each pair is two rectangles written as one L-shaped flash
	// sharing one dose. Nil for rectangle-only solvers.
	Pairs [][2]int
	// Stage holds solver-specific stage statistics (*mbf.StageInfo for
	// "mbf"); nil when the solver reports none. The facade type-asserts
	// it back, keeping the registry free of solver imports.
	Stage any
}

// SolveFunc runs a registered solver on a prepared problem. The shot
// order of the returned solution must be deterministic: the engine
// relies on it for byte-identical parallel and sequential runs.
type SolveFunc func(ctx context.Context, p *cover.Problem, opt Options) (*Solution, error)

var (
	regMu   sync.RWMutex
	solvers = map[string]SolveFunc{}
)

// Register adds a solver under the given method name. Registration
// happens in package init, where an empty name, a nil func or a name
// collision is a programming error — Register panics on all three.
func Register(name string, fn SolveFunc) {
	if name == "" {
		panic("engine: Register with empty method name")
	}
	if fn == nil {
		panic("engine: Register " + name + " with nil solver")
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := solvers[name]; dup {
		panic("engine: Register called twice for method " + name)
	}
	solvers[name] = fn
}

// Lookup returns the solver registered under name.
func Lookup(name string) (SolveFunc, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	fn, ok := solvers[name]
	return fn, ok
}

// Names returns the registered method names, sorted.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]string, 0, len(solvers))
	for name := range solvers {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

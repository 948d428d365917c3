package gsc

import (
	"context"

	"maskfrac/internal/cover"
	"maskfrac/internal/fracture/engine"
)

// init registers the greedy set cover baseline with the engine's solver
// registry.
func init() {
	engine.Register("gsc", func(_ context.Context, p *cover.Problem, opt engine.Options) (*engine.Solution, error) {
		r := Fracture(p, opt.MaxIterations)
		return &engine.Solution{Shots: r.Shots}, nil
	})
}

package protoeda

import (
	"context"

	"maskfrac/internal/cover"
	"maskfrac/internal/fracture/engine"
)

// init registers the PROTO-EDA substitute with the engine's solver
// registry.
func init() {
	engine.Register("proto-eda", func(_ context.Context, p *cover.Problem, opt engine.Options) (*engine.Solution, error) {
		r := Fracture(p, opt.MaxIterations)
		return &engine.Solution{Shots: r.Shots}, nil
	})
}

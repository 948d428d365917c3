package lshape

import (
	"context"

	"maskfrac/internal/cover"
	"maskfrac/internal/fracture/engine"
)

// init registers L-shape fracturing with the engine's solver registry.
func init() {
	engine.Register("lshape", func(_ context.Context, p *cover.Problem, _ engine.Options) (*engine.Solution, error) {
		return Fracture(p)
	})
}

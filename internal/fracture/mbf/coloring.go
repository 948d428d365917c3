package mbf

import (
	"context"
	"math"

	"maskfrac/internal/cover"
	"maskfrac/internal/geom"
	"maskfrac/internal/graphx"
	"maskfrac/internal/telemetry"
)

// approximateFracture runs the graph-coloring-based approximate
// fracturing stage (paper §3) and returns the initial shot set. Each
// sub-stage records a telemetry span when ctx carries a trace.
func approximateFracture(ctx context.Context, p *cover.Problem, opt Options) ([]geom.Rect, StageInfo) {
	var info StageInfo
	parent := telemetry.ActiveSpan(ctx)

	sp := parent.Child("mbf.corners")
	raw, simplified, lth := extractCorners(p, opt)
	info.VerticesRDP = len(simplified)
	info.CornersRaw = len(raw)
	info.Lth = lth
	sp.Set("vertices_in", len(p.Target))
	sp.Set("vertices_rdp", len(simplified))
	sp.Set("corners_raw", len(raw))
	sp.End()

	sp = parent.Child("mbf.cluster")
	pts := raw
	if !opt.DisableClustering {
		pts = clusterCorners(raw, lth)
	}
	info.Corners = len(pts)
	sp.Set("corners", len(pts))
	sp.End()
	if len(pts) == 0 {
		return nil, info
	}

	sp = parent.Child("mbf.graph")
	g := buildCompatibilityGraph(p, pts, lth, opt)
	info.GraphEdges = g.EdgeCount()
	sp.Set("edges", g.EdgeCount())
	sp.End()

	sp = parent.Child("mbf.color")
	colors, n := g.Inverse().GreedyColor(opt.Order)
	info.Colors = n
	sp.Set("colors", n)
	sp.End()

	sp = parent.Child("mbf.reconstruct")
	classes := graphx.ColorClasses(colors, n)
	shots := make([]geom.Rect, 0, n)
	for _, class := range classes {
		if len(class) == 0 {
			continue
		}
		cps := make([]CornerPoint, len(class))
		for i, v := range class {
			cps[i] = pts[v]
		}
		shots = append(shots, shotFromClass(p, cps))
	}
	sp.Set("shots", len(shots))
	sp.End()
	return shots, info
}

// buildCompatibilityGraph constructs G(V,E): vertices are corner points,
// with an edge between ci and cj when a valid test shot uses both as its
// corners — different corner types, minimum size satisfied, and at
// least opt.OverlapFrac of the test shot inside the target (paper §3).
func buildCompatibilityGraph(p *cover.Problem, pts []CornerPoint, lth float64, opt Options) *graphx.Graph {
	g := graphx.New(len(pts))
	for i := 0; i < len(pts); i++ {
		for j := i + 1; j < len(pts); j++ {
			if s, ok := testShot(p, pts[i], pts[j], lth); ok {
				if p.InteriorFraction(s) >= opt.OverlapFrac {
					g.AddEdge(i, j)
				}
			}
		}
	}
	return g
}

// testShot builds the candidate shot implied by a pair of corner
// points. Diagonal pairs determine the shot uniquely; adjacent pairs
// (two corners of the same shot edge) are extended to the minimum shot
// size perpendicular to that edge. Returns ok=false when the pair
// cannot be corners of a legal shot.
func testShot(p *cover.Problem, a, b CornerPoint, lth float64) (geom.Rect, bool) {
	if a.Type == b.Type {
		return geom.Rect{}, false
	}
	lmin := p.Params.Lmin
	// normalize order so a has the "smaller" type for fewer cases
	if a.Type > b.Type {
		a, b = b, a
	}
	switch {
	case a.Type == BL && b.Type == TR:
		r := geom.Rect{X0: a.P.X, Y0: a.P.Y, X1: b.P.X, Y1: b.P.Y}
		return r, r.W() >= lmin && r.H() >= lmin
	case a.Type == BR && b.Type == TL:
		r := geom.Rect{X0: b.P.X, Y0: a.P.Y, X1: a.P.X, Y1: b.P.Y}
		return r, r.W() >= lmin && r.H() >= lmin
	case a.Type == BL && b.Type == BR: // bottom edge
		if math.Abs(a.P.Y-b.P.Y) > lth || b.P.X-a.P.X < lmin {
			return geom.Rect{}, false
		}
		y := (a.P.Y + b.P.Y) / 2
		return geom.Rect{X0: a.P.X, Y0: y, X1: b.P.X, Y1: y + lmin}, true
	case a.Type == TL && b.Type == TR: // top edge
		if math.Abs(a.P.Y-b.P.Y) > lth || b.P.X-a.P.X < lmin {
			return geom.Rect{}, false
		}
		y := (a.P.Y + b.P.Y) / 2
		return geom.Rect{X0: a.P.X, Y0: y - lmin, X1: b.P.X, Y1: y}, true
	case a.Type == BL && b.Type == TL: // left edge
		if math.Abs(a.P.X-b.P.X) > lth || b.P.Y-a.P.Y < lmin {
			return geom.Rect{}, false
		}
		x := (a.P.X + b.P.X) / 2
		return geom.Rect{X0: x, Y0: a.P.Y, X1: x + lmin, Y1: b.P.Y}, true
	case a.Type == BR && b.Type == TR: // right edge
		if math.Abs(a.P.X-b.P.X) > lth || b.P.Y-a.P.Y < lmin {
			return geom.Rect{}, false
		}
		x := (a.P.X + b.P.X) / 2
		return geom.Rect{X0: x - lmin, Y0: a.P.Y, X1: x, Y1: b.P.Y}, true
	}
	return geom.Rect{}, false
}

// shotFromClass reconstructs the shot of one color class (a clique of
// the compatibility graph, at most one corner point per type). Sides
// without a corner point start at the minimum shot size and are
// extended until they touch the opposite boundary of the target shape
// (paper Fig 4).
func shotFromClass(p *cover.Problem, cps []CornerPoint) geom.Rect {
	var xl, xr, yb, yt []float64
	for _, c := range cps {
		switch c.Type {
		case BL:
			xl = append(xl, c.P.X)
			yb = append(yb, c.P.Y)
		case BR:
			xr = append(xr, c.P.X)
			yb = append(yb, c.P.Y)
		case TL:
			xl = append(xl, c.P.X)
			yt = append(yt, c.P.Y)
		case TR:
			xr = append(xr, c.P.X)
			yt = append(yt, c.P.Y)
		}
	}
	lmin := p.Params.Lmin
	var r geom.Rect
	hasL, hasR := len(xl) > 0, len(xr) > 0
	hasB, hasT := len(yb) > 0, len(yt) > 0
	if hasL {
		r.X0 = mean(xl)
	}
	if hasR {
		r.X1 = mean(xr)
	}
	if hasB {
		r.Y0 = mean(yb)
	}
	if hasT {
		r.Y1 = mean(yt)
	}
	// resolve missing sides by extension toward the opposite boundary
	switch {
	case hasL && !hasR:
		r.X1 = extend(p, r.X0+lmin, probeY(r, hasB, hasT, lmin), +1, true)
	case hasR && !hasL:
		r.X0 = extend(p, r.X1-lmin, probeY(r, hasB, hasT, lmin), -1, true)
	case !hasL && !hasR:
		// no horizontal constraint at all (cannot happen for non-empty
		// classes, every type constrains one x side) — leave zero
	}
	switch {
	case hasB && !hasT:
		r.Y1 = extend(p, r.Y0+lmin, (r.X0+r.X1)/2, +1, false)
	case hasT && !hasB:
		r.Y0 = extend(p, r.Y1-lmin, (r.X0+r.X1)/2, -1, false)
	}
	return trimToInterior(p, p.Legalize(r), 0.8)
}

// trimToInterior pulls the sides of an over-extended shot back until at
// least minFrac of its area lies inside the target (the same criterion
// the compatibility graph applies to test shots). On wavy curvilinear
// shapes the Fig-4 extension can overhang concave regions badly; an
// initial solution mostly inside the target keeps refinement from
// drowning in Poff violations. Each step trims the side that improves
// the interior fraction most.
func trimToInterior(p *cover.Problem, r geom.Rect, minFrac float64) geom.Rect {
	lmin := p.Params.Lmin
	step := 2 * p.Params.Pitch
	for iter := 0; iter < 200; iter++ {
		if p.InteriorFraction(r) >= minFrac {
			return r
		}
		best := r
		bestFrac := -1.0
		for _, m := range [4]struct {
			s geom.Side
			d float64
		}{{geom.Left, step}, {geom.Right, -step}, {geom.Bottom, step}, {geom.Top, -step}} {
			nr := r.MoveEdge(m.s, m.d)
			if nr.W() < lmin || nr.H() < lmin {
				continue
			}
			if f := p.InteriorFraction(nr); f > bestFrac {
				best, bestFrac = nr, f
			}
		}
		if bestFrac < 0 || best == r {
			return r // cannot trim further
		}
		r = best
	}
	return r
}

// probeY picks the y coordinate used to probe the target interior while
// extending horizontally.
func probeY(r geom.Rect, hasB, hasT bool, lmin float64) float64 {
	switch {
	case hasB && hasT:
		return (r.Y0 + r.Y1) / 2
	case hasB:
		return r.Y0 + lmin/2
	case hasT:
		return r.Y1 - lmin/2
	}
	return (r.Y0 + r.Y1) / 2
}

// extend marches a shot edge from start in direction dir (+1/−1) while
// the probe point stays inside the target, in pixel-size steps, and
// returns the final coordinate. horizontal selects whether the edge
// moves along x (probe fixed y) or along y (probe fixed x).
func extend(p *cover.Problem, start, probe float64, dir float64, horizontal bool) float64 {
	step := p.Params.Pitch * dir
	bounds := p.TargetBounds()
	pos := start
	for iter := 0; iter < 100000; iter++ {
		next := pos + step
		var pt geom.Point
		if horizontal {
			if next < bounds.X0-1 || next > bounds.X1+1 {
				break
			}
			pt = geom.Pt(next, probe)
		} else {
			if next < bounds.Y0-1 || next > bounds.Y1+1 {
				break
			}
			pt = geom.Pt(probe, next)
		}
		if !p.ContainsPoint(pt) {
			break
		}
		pos = next
	}
	return pos
}

func mean(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

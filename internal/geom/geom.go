// Package geom provides the planar geometry primitives used throughout the
// mask fracturing library: points, axis-parallel rectangles, polygons,
// polyline simplification and distance queries.
//
// All coordinates are in nanometers, stored as float64. Mask shapes are
// simple polygons (possibly non-rectilinear: ILT contours are curvilinear
// and approximated by many short segments). Shots are axis-parallel
// rectangles.
package geom

import "math"

// Point is a point in the plane, in nanometers.
type Point struct {
	X, Y float64
}

// Pt is shorthand for Point{x, y}.
func Pt(x, y float64) Point { return Point{x, y} }

// Add returns p + q.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Sub returns p - q.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Scale returns p scaled by k.
func (p Point) Scale(k float64) Point { return Point{p.X * k, p.Y * k} }

// Dot returns the dot product p·q.
func (p Point) Dot(q Point) float64 { return p.X*q.X + p.Y*q.Y }

// Cross returns the z component of the cross product p×q.
//
// The conversions round each product on its own: they forbid fusing
// either into a multiply-add, which arm64 would round once and amd64
// never fuses, so both give the same bits.
func (p Point) Cross(q Point) float64 { return float64(p.X*q.Y) - float64(p.Y*q.X) }

// Norm returns the Euclidean length of the vector p.
func (p Point) Norm() float64 { return math.Hypot(p.X, p.Y) }

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 { return p.Sub(q).Norm() }

// Rect is an axis-parallel rectangle given by its bottom-left (X0, Y0)
// and top-right (X1, Y1) corners. A Rect is valid when X0 <= X1 and
// Y0 <= Y1. E-beam shots are Rects.
type Rect struct {
	X0, Y0, X1, Y1 float64
}

// RectFromCorners returns the Rect spanned by two arbitrary opposite
// corners (in any order).
func RectFromCorners(a, b Point) Rect {
	return Rect{
		X0: math.Min(a.X, b.X),
		Y0: math.Min(a.Y, b.Y),
		X1: math.Max(a.X, b.X),
		Y1: math.Max(a.Y, b.Y),
	}
}

// W returns the width of r.
func (r Rect) W() float64 { return r.X1 - r.X0 }

// H returns the height of r.
func (r Rect) H() float64 { return r.Y1 - r.Y0 }

// Area returns the area of r, zero for invalid rectangles.
func (r Rect) Area() float64 {
	if r.Empty() {
		return 0
	}
	return r.W() * r.H()
}

// Empty reports whether r has non-positive width or height.
func (r Rect) Empty() bool { return r.X1 <= r.X0 || r.Y1 <= r.Y0 }

// Valid reports whether r has non-negative width and height (degenerate
// zero-size rectangles are valid but empty).
func (r Rect) Valid() bool { return r.X1 >= r.X0 && r.Y1 >= r.Y0 }

// Center returns the center point of r.
func (r Rect) Center() Point { return Point{(r.X0 + r.X1) / 2, (r.Y0 + r.Y1) / 2} }

// Contains reports whether p lies inside r (boundary inclusive).
func (r Rect) Contains(p Point) bool {
	return p.X >= r.X0 && p.X <= r.X1 && p.Y >= r.Y0 && p.Y <= r.Y1
}

// ContainsRect reports whether s lies entirely inside r (boundary inclusive).
func (r Rect) ContainsRect(s Rect) bool {
	return s.X0 >= r.X0 && s.X1 <= r.X1 && s.Y0 >= r.Y0 && s.Y1 <= r.Y1
}

// Intersect returns the intersection of r and s; the result may be empty.
func (r Rect) Intersect(s Rect) Rect {
	return Rect{
		X0: math.Max(r.X0, s.X0),
		Y0: math.Max(r.Y0, s.Y0),
		X1: math.Min(r.X1, s.X1),
		Y1: math.Min(r.Y1, s.Y1),
	}
}

// Union returns the smallest rectangle containing both r and s.
func (r Rect) Union(s Rect) Rect {
	if r.Empty() {
		return s
	}
	if s.Empty() {
		return r
	}
	return Rect{
		X0: math.Min(r.X0, s.X0),
		Y0: math.Min(r.Y0, s.Y0),
		X1: math.Max(r.X1, s.X1),
		Y1: math.Max(r.Y1, s.Y1),
	}
}

// Overlaps reports whether r and s share interior area.
func (r Rect) Overlaps(s Rect) bool { return !r.Intersect(s).Empty() }

// Inset returns r shrunk by d on every side (negative d grows the rect).
func (r Rect) Inset(d float64) Rect {
	return Rect{r.X0 + d, r.Y0 + d, r.X1 - d, r.Y1 - d}
}

// Side names one of the four edges of a Rect.
type Side uint8

// The four edges, in the order the ±Δp edge loops visit them.
const (
	Left Side = iota
	Right
	Bottom
	Top
)

// Sides lists the four edges in visiting order.
var Sides = [4]Side{Left, Right, Bottom, Top}

// edge returns a pointer to the coordinate of edge s of r.
func (r *Rect) edge(s Side) *float64 {
	switch s {
	case Left:
		return &r.X0
	case Right:
		return &r.X1
	case Bottom:
		return &r.Y0
	default:
		return &r.Y1
	}
}

// Edge returns the coordinate of edge s of r.
func (r Rect) Edge(s Side) float64 { return *r.edge(s) }

// MoveEdge returns r with edge s shifted by d.
func (r Rect) MoveEdge(s Side, d float64) Rect {
	*r.edge(s) += d
	return r
}

// EdgeSegment returns the endpoints of edge s of r.
func (r Rect) EdgeSegment(s Side) (Point, Point) {
	switch s {
	case Left:
		return Pt(r.X0, r.Y0), Pt(r.X0, r.Y1)
	case Right:
		return Pt(r.X1, r.Y0), Pt(r.X1, r.Y1)
	case Bottom:
		return Pt(r.X0, r.Y0), Pt(r.X1, r.Y0)
	default:
		return Pt(r.X0, r.Y1), Pt(r.X1, r.Y1)
	}
}

// Dist returns the Euclidean distance from p to the closest point of r
// (zero when p is inside r).
func (r Rect) Dist(p Point) float64 {
	dx := math.Max(0, math.Max(r.X0-p.X, p.X-r.X1))
	dy := math.Max(0, math.Max(r.Y0-p.Y, p.Y-r.Y1))
	return math.Hypot(dx, dy)
}

// Corners returns the four corners of r in order bottom-left,
// bottom-right, top-right, top-left.
func (r Rect) Corners() [4]Point {
	return [4]Point{
		{r.X0, r.Y0}, {r.X1, r.Y0}, {r.X1, r.Y1}, {r.X0, r.Y1},
	}
}

// RectDist returns the Euclidean distance between the closest points of
// rectangles r and s (zero when they touch or overlap).
func RectDist(r, s Rect) float64 {
	dx := math.Max(0, math.Max(s.X0-r.X1, r.X0-s.X1))
	dy := math.Max(0, math.Max(s.Y0-r.Y1, r.Y0-s.Y1))
	return math.Hypot(dx, dy)
}

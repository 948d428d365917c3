package geom

import (
	"fmt"
	"math"
)

// Polygon is a simple polygon given by its vertices in order, without a
// repeated closing vertex. Mask target shapes are Polygons; ILT shapes
// have many short, possibly diagonal edges, while rectilinear shapes have
// only axis-parallel edges.
type Polygon []Point

// Clone returns a deep copy of pg.
func (pg Polygon) Clone() Polygon {
	out := make(Polygon, len(pg))
	copy(out, pg)
	return out
}

// SignedArea returns the signed area of pg: positive for counterclockwise
// orientation, negative for clockwise.
func (pg Polygon) SignedArea() float64 {
	if len(pg) < 3 {
		return 0
	}
	sum := 0.0
	for i, p := range pg {
		q := pg[(i+1)%len(pg)]
		sum += p.Cross(q)
	}
	return sum / 2
}

// Area returns the absolute area of pg.
func (pg Polygon) Area() float64 { return math.Abs(pg.SignedArea()) }

// Perimeter returns the total boundary length of pg.
func (pg Polygon) Perimeter() float64 {
	if len(pg) < 2 {
		return 0
	}
	sum := 0.0
	for i, p := range pg {
		sum += p.Dist(pg[(i+1)%len(pg)])
	}
	return sum
}

// IsCCW reports whether pg is counterclockwise oriented.
func (pg Polygon) IsCCW() bool { return pg.SignedArea() > 0 }

// EnsureCCW returns pg oriented counterclockwise, reversing if needed.
// The receiver is not modified.
func (pg Polygon) EnsureCCW() Polygon {
	if pg.IsCCW() {
		return pg.Clone()
	}
	out := make(Polygon, len(pg))
	for i, p := range pg {
		out[len(pg)-1-i] = p
	}
	return out
}

// Bounds returns the bounding box of pg. It returns an empty Rect for a
// polygon with no vertices.
func (pg Polygon) Bounds() Rect {
	if len(pg) == 0 {
		return Rect{}
	}
	r := Rect{pg[0].X, pg[0].Y, pg[0].X, pg[0].Y}
	for _, p := range pg[1:] {
		r.X0 = math.Min(r.X0, p.X)
		r.Y0 = math.Min(r.Y0, p.Y)
		r.X1 = math.Max(r.X1, p.X)
		r.Y1 = math.Max(r.Y1, p.Y)
	}
	return r
}

// Contains reports whether p is strictly inside pg using the even-odd
// (ray crossing) rule. Points exactly on the boundary may be classified
// either way; mask pixels never land exactly on shape boundaries after
// the half-pixel sampling offset, so this is adequate for rasterization.
func (pg Polygon) Contains(p Point) bool {
	in := false
	n := len(pg)
	for i, j := 0, n-1; i < n; j, i = i, i+1 {
		a, b := pg[i], pg[j]
		if (a.Y > p.Y) != (b.Y > p.Y) {
			xint := (b.X-a.X)*(p.Y-a.Y)/(b.Y-a.Y) + a.X
			if p.X < xint {
				in = !in
			}
		}
	}
	return in
}

// IsRectilinear reports whether every edge of pg is axis-parallel.
func (pg Polygon) IsRectilinear() bool {
	for i, p := range pg {
		q := pg[(i+1)%len(pg)]
		if p.X != q.X && p.Y != q.Y {
			return false
		}
	}
	return true
}

// Validate checks pg for basic structural soundness: at least three
// vertices, all finite, no consecutive duplicate vertices and non-zero
// area.
func (pg Polygon) Validate() error {
	if len(pg) < 3 {
		return fmt.Errorf("geom: polygon has %d vertices, need at least 3", len(pg))
	}
	for i, p := range pg {
		if math.IsNaN(p.X) || math.IsInf(p.X, 0) || math.IsNaN(p.Y) || math.IsInf(p.Y, 0) {
			return fmt.Errorf("geom: vertex %d at (%g, %g) is not finite", i, p.X, p.Y)
		}
		q := pg[(i+1)%len(pg)]
		if p == q {
			return fmt.Errorf("geom: duplicate consecutive vertex %d at (%g, %g)", i, p.X, p.Y)
		}
	}
	if pg.Area() == 0 {
		return fmt.Errorf("geom: polygon has zero area")
	}
	return nil
}

// RemoveCollinear returns pg with vertices dropped when they are
// collinear (within tol of the line through their neighbours). The
// receiver is unmodified. Useful after contour extraction, which emits a
// vertex per pixel step.
func (pg Polygon) RemoveCollinear(tol float64) Polygon {
	if len(pg) < 4 {
		return pg.Clone()
	}
	out := make(Polygon, 0, len(pg))
	n := len(pg)
	for i := 0; i < n; i++ {
		prev := pg[(i+n-1)%n]
		cur := pg[i]
		next := pg[(i+1)%n]
		if PointSegDist(cur, prev, next) > tol {
			out = append(out, cur)
		}
	}
	if len(out) < 3 {
		return pg.Clone()
	}
	return out
}

// Translate returns pg shifted by d.
func (pg Polygon) Translate(d Point) Polygon {
	out := make(Polygon, len(pg))
	for i, p := range pg {
		out[i] = p.Add(d)
	}
	return out
}

// Edge returns the i-th edge of pg as its endpoint pair (pg[i],
// pg[(i+1) mod n]).
func (pg Polygon) Edge(i int) (Point, Point) {
	return pg[i], pg[(i+1)%len(pg)]
}

// BoundaryDist returns the distance from p to the closest point on the
// boundary of pg.
func (pg Polygon) BoundaryDist(p Point) float64 {
	best := math.Inf(1)
	for i := range pg {
		a, b := pg.Edge(i)
		if d := PointSegDist(p, a, b); d < best {
			best = d
		}
	}
	return best
}

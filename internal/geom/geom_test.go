package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func TestPointOps(t *testing.T) {
	p, q := Pt(1, 2), Pt(3, -4)
	if got := p.Add(q); got != Pt(4, -2) {
		t.Errorf("Add = %v", got)
	}
	if got := p.Sub(q); got != Pt(-2, 6) {
		t.Errorf("Sub = %v", got)
	}
	if got := p.Scale(2); got != Pt(2, 4) {
		t.Errorf("Scale = %v", got)
	}
	if got := p.Dot(q); got != 3-8 {
		t.Errorf("Dot = %v", got)
	}
	if got := p.Cross(q); got != -4-6 {
		t.Errorf("Cross = %v", got)
	}
	if got := Pt(3, 4).Norm(); got != 5 {
		t.Errorf("Norm = %v", got)
	}
	if got := Pt(0, 0).Dist(Pt(3, 4)); got != 5 {
		t.Errorf("Dist = %v", got)
	}
}

func TestRectBasics(t *testing.T) {
	r := Rect{0, 0, 4, 2}
	if r.W() != 4 || r.H() != 2 || r.Area() != 8 {
		t.Errorf("W/H/Area = %v %v %v", r.W(), r.H(), r.Area())
	}
	if r.Empty() {
		t.Error("non-empty rect reported empty")
	}
	if !(Rect{1, 1, 1, 3}).Empty() {
		t.Error("zero-width rect not empty")
	}
	if (Rect{0, 0, -1, 1}).Valid() {
		t.Error("inverted rect reported valid")
	}
	if r.Center() != Pt(2, 1) {
		t.Errorf("Center = %v", r.Center())
	}
}

func TestRectFromCorners(t *testing.T) {
	r := RectFromCorners(Pt(4, 1), Pt(1, 3))
	want := Rect{1, 1, 4, 3}
	if r != want {
		t.Errorf("RectFromCorners = %v, want %v", r, want)
	}
}

func TestRectContains(t *testing.T) {
	r := Rect{0, 0, 4, 2}
	for _, tc := range []struct {
		p    Point
		want bool
	}{
		{Pt(2, 1), true},
		{Pt(0, 0), true}, // boundary inclusive
		{Pt(4, 2), true}, // boundary inclusive
		{Pt(5, 1), false},
		{Pt(2, -0.1), false},
	} {
		if got := r.Contains(tc.p); got != tc.want {
			t.Errorf("Contains(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if !r.ContainsRect(Rect{1, 0.5, 3, 1.5}) {
		t.Error("inner rect not contained")
	}
	if r.ContainsRect(Rect{1, 0.5, 5, 1.5}) {
		t.Error("overhanging rect contained")
	}
}

func TestRectIntersectUnion(t *testing.T) {
	a := Rect{0, 0, 4, 4}
	b := Rect{2, 2, 6, 6}
	got := a.Intersect(b)
	if got != (Rect{2, 2, 4, 4}) {
		t.Errorf("Intersect = %v", got)
	}
	if !a.Overlaps(b) {
		t.Error("Overlaps = false")
	}
	if a.Overlaps(Rect{4, 0, 6, 4}) {
		t.Error("touching rects should not overlap (no interior area)")
	}
	u := a.Union(b)
	if u != (Rect{0, 0, 6, 6}) {
		t.Errorf("Union = %v", u)
	}
	if e := (Rect{}).Union(a); e != a {
		t.Errorf("Union with empty = %v", e)
	}
}

func TestRectInsetDist(t *testing.T) {
	r := Rect{0, 0, 10, 10}
	if got := r.Inset(2); got != (Rect{2, 2, 8, 8}) {
		t.Errorf("Inset = %v", got)
	}
	if got := r.Dist(Pt(5, 5)); got != 0 {
		t.Errorf("Dist inside = %v", got)
	}
	if got := r.Dist(Pt(13, 14)); got != 5 {
		t.Errorf("Dist corner = %v", got)
	}
	if got := r.Dist(Pt(-3, 5)); got != 3 {
		t.Errorf("Dist side = %v", got)
	}
}

func TestRectDist(t *testing.T) {
	a := Rect{0, 0, 2, 2}
	if d := RectDist(a, Rect{5, 0, 6, 2}); d != 3 {
		t.Errorf("RectDist horizontal = %v", d)
	}
	if d := RectDist(a, Rect{5, 6, 7, 8}); d != 5 {
		t.Errorf("RectDist diagonal = %v", d)
	}
	if d := RectDist(a, Rect{1, 1, 3, 3}); d != 0 {
		t.Errorf("RectDist overlap = %v", d)
	}
}

func TestRectMoveEdgeAndEdgeSegment(t *testing.T) {
	r := Rect{X0: 0, Y0: 0, X1: 10, Y1: 20}
	if got := r.MoveEdge(Left, 2); got != (Rect{X0: 2, Y0: 0, X1: 10, Y1: 20}) {
		t.Errorf("left move = %v", got)
	}
	if got := r.MoveEdge(Top, -3); got != (Rect{X0: 0, Y0: 0, X1: 10, Y1: 17}) {
		t.Errorf("top move = %v", got)
	}
	for s, want := range map[Side]float64{Left: 0, Right: 10, Bottom: 0, Top: 20} {
		if got := r.Edge(s); got != want {
			t.Errorf("Edge(%d) = %v, want %v", s, got, want)
		}
	}
	a, b := r.EdgeSegment(Right)
	if a != Pt(10, 0) || b != Pt(10, 20) {
		t.Errorf("right segment = %v %v", a, b)
	}
	a, b = r.EdgeSegment(Bottom)
	if a != Pt(0, 0) || b != Pt(10, 0) {
		t.Errorf("bottom segment = %v %v", a, b)
	}
}

func TestRectCorners(t *testing.T) {
	c := (Rect{1, 2, 3, 4}).Corners()
	want := [4]Point{{1, 2}, {3, 2}, {3, 4}, {1, 4}}
	if c != want {
		t.Errorf("Corners = %v", c)
	}
}

// unit square, counterclockwise
var ccwSquare = Polygon{{0, 0}, {4, 0}, {4, 4}, {0, 4}}

func TestPolygonArea(t *testing.T) {
	if a := ccwSquare.SignedArea(); a != 16 {
		t.Errorf("SignedArea ccw = %v", a)
	}
	cw := ccwSquare.EnsureCCW() // already ccw, clone
	if !cw.IsCCW() {
		t.Error("EnsureCCW broke orientation")
	}
	rev := Polygon{{0, 4}, {4, 4}, {4, 0}, {0, 0}}
	if rev.IsCCW() {
		t.Error("cw square reported ccw")
	}
	if a := rev.SignedArea(); a != -16 {
		t.Errorf("SignedArea cw = %v", a)
	}
	fixed := rev.EnsureCCW()
	if !fixed.IsCCW() || fixed.Area() != 16 {
		t.Error("EnsureCCW failed to flip")
	}
}

func TestPolygonPerimeter(t *testing.T) {
	if p := ccwSquare.Perimeter(); p != 16 {
		t.Errorf("Perimeter = %v", p)
	}
	// L-shape
	l := Polygon{{0, 0}, {4, 0}, {4, 2}, {2, 2}, {2, 4}, {0, 4}}
	if p := l.Perimeter(); p != 16 {
		t.Errorf("L perimeter = %v", p)
	}
	if a := l.Area(); a != 12 {
		t.Errorf("L area = %v", a)
	}
}

func TestPolygonContains(t *testing.T) {
	l := Polygon{{0, 0}, {4, 0}, {4, 2}, {2, 2}, {2, 4}, {0, 4}}
	for _, tc := range []struct {
		p    Point
		want bool
	}{
		{Pt(1, 1), true},
		{Pt(3, 1), true},
		{Pt(1, 3), true},
		{Pt(3, 3), false}, // in the notch
		{Pt(5, 5), false},
		{Pt(-1, 1), false},
	} {
		if got := l.Contains(tc.p); got != tc.want {
			t.Errorf("Contains(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
}

func TestPolygonBounds(t *testing.T) {
	l := Polygon{{1, 0}, {4, 0}, {4, 2}, {2, 2}, {2, 5}, {1, 5}}
	if b := l.Bounds(); b != (Rect{1, 0, 4, 5}) {
		t.Errorf("Bounds = %v", b)
	}
	if b := (Polygon{}).Bounds(); !b.Empty() {
		t.Errorf("empty polygon bounds = %v", b)
	}
}

func TestPolygonRectilinear(t *testing.T) {
	if !ccwSquare.IsRectilinear() {
		t.Error("square not rectilinear")
	}
	tri := Polygon{{0, 0}, {4, 0}, {2, 3}}
	if tri.IsRectilinear() {
		t.Error("triangle rectilinear")
	}
}

func TestPolygonValidate(t *testing.T) {
	if err := ccwSquare.Validate(); err != nil {
		t.Errorf("valid polygon rejected: %v", err)
	}
	if err := (Polygon{{0, 0}, {1, 1}}).Validate(); err == nil {
		t.Error("2-vertex polygon accepted")
	}
	if err := (Polygon{{0, 0}, {0, 0}, {1, 1}}).Validate(); err == nil {
		t.Error("duplicate vertex accepted")
	}
	if err := (Polygon{{0, 0}, {1, 1}, {2, 2}}).Validate(); err == nil {
		t.Error("zero-area polygon accepted")
	}
}

func TestRemoveCollinear(t *testing.T) {
	pg := Polygon{{0, 0}, {2, 0}, {4, 0}, {4, 4}, {0, 4}}
	out := pg.RemoveCollinear(1e-9)
	if len(out) != 4 {
		t.Fatalf("RemoveCollinear kept %d vertices, want 4: %v", len(out), out)
	}
	if out.Area() != pg.Area() {
		t.Errorf("area changed: %v -> %v", pg.Area(), out.Area())
	}
}

func TestPolygonTranslateEdge(t *testing.T) {
	sq := ccwSquare.Translate(Pt(1, 2))
	if sq[0] != Pt(1, 2) || sq[2] != Pt(5, 6) {
		t.Errorf("Translate = %v", sq)
	}
	a, b := ccwSquare.Edge(3)
	if a != Pt(0, 4) || b != Pt(0, 0) {
		t.Errorf("Edge(3) = %v %v", a, b)
	}
}

func TestBoundaryDist(t *testing.T) {
	if d := ccwSquare.BoundaryDist(Pt(2, 2)); d != 2 {
		t.Errorf("BoundaryDist center = %v", d)
	}
	if d := ccwSquare.BoundaryDist(Pt(6, 2)); d != 2 {
		t.Errorf("BoundaryDist outside = %v", d)
	}
}

func TestPointSegDist(t *testing.T) {
	if d := PointSegDist(Pt(0, 1), Pt(-1, 0), Pt(1, 0)); d != 1 {
		t.Errorf("perpendicular = %v", d)
	}
	if d := PointSegDist(Pt(3, 4), Pt(0, 0), Pt(0, 0)); d != 5 {
		t.Errorf("degenerate segment = %v", d)
	}
	if d := PointSegDist(Pt(5, 0), Pt(-1, 0), Pt(1, 0)); d != 4 {
		t.Errorf("beyond endpoint = %v", d)
	}
}

func TestSegSegDist(t *testing.T) {
	// crossing segments
	if d := SegSegDist(Pt(0, 0), Pt(2, 2), Pt(0, 2), Pt(2, 0)); d != 0 {
		t.Errorf("crossing = %v", d)
	}
	// parallel
	if d := SegSegDist(Pt(0, 0), Pt(2, 0), Pt(0, 3), Pt(2, 3)); d != 3 {
		t.Errorf("parallel = %v", d)
	}
	// endpoint touching
	if d := SegSegDist(Pt(0, 0), Pt(1, 0), Pt(1, 0), Pt(2, 5)); d != 0 {
		t.Errorf("touching = %v", d)
	}
	// collinear overlap
	if d := SegSegDist(Pt(0, 0), Pt(3, 0), Pt(1, 0), Pt(5, 0)); d != 0 {
		t.Errorf("collinear overlap = %v", d)
	}
	// disjoint diagonal
	if d := SegSegDist(Pt(0, 0), Pt(1, 0), Pt(4, 4), Pt(5, 4)); math.Abs(d-5) > 1e-12 {
		t.Errorf("diagonal = %v", d)
	}
}

func TestSimplifyChain(t *testing.T) {
	// nearly straight line with a 0.1 bump simplifies to endpoints
	pts := []Point{{0, 0}, {1, 0.1}, {2, 0}, {3, -0.05}, {4, 0}}
	out := SimplifyChain(pts, 0.5)
	if len(out) != 2 || out[0] != pts[0] || out[1] != pts[4] {
		t.Errorf("flat chain = %v", out)
	}
	// a real corner survives
	pts = []Point{{0, 0}, {2, 0}, {2, 2}}
	out = SimplifyChain(pts, 0.5)
	if len(out) != 3 {
		t.Errorf("corner dropped: %v", out)
	}
	// short inputs pass through
	out = SimplifyChain(pts[:2], 0.5)
	if len(out) != 2 {
		t.Errorf("2-point chain = %v", out)
	}
}

func TestSimplifyChainTolerance(t *testing.T) {
	// every original point must be within tol of the simplified chain
	pts := make([]Point, 0, 50)
	for i := 0; i < 50; i++ {
		x := float64(i)
		pts = append(pts, Pt(x, 3*math.Sin(x/5)))
	}
	tol := 0.75
	out := SimplifyChain(pts, tol)
	if len(out) >= len(pts) {
		t.Fatalf("no simplification: %d -> %d", len(pts), len(out))
	}
	for _, p := range pts {
		best := math.Inf(1)
		for i := 0; i+1 < len(out); i++ {
			if d := PointSegDist(p, out[i], out[i+1]); d < best {
				best = d
			}
		}
		if best > tol+1e-9 {
			t.Errorf("point %v is %v from simplified chain (tol %v)", p, best, tol)
		}
	}
}

func TestSimplifyPolygon(t *testing.T) {
	// octagon-ish shape with redundant near-collinear vertices
	pg := Polygon{
		{0, 0}, {2, 0.01}, {4, 0}, {6, 0.02}, {8, 0},
		{8, 4}, {6, 4.01}, {4, 4}, {2, 3.99}, {0, 4},
	}
	out := SimplifyPolygon(pg, 0.5)
	if len(out) >= len(pg) {
		t.Errorf("no simplification: %d -> %d", len(pg), len(out))
	}
	if len(out) < 3 {
		t.Fatalf("degenerate output: %v", out)
	}
	// area approximately preserved
	if math.Abs(out.Area()-pg.Area()) > 1.0 {
		t.Errorf("area changed too much: %v -> %v", pg.Area(), out.Area())
	}
	// small polygons pass through
	tri := Polygon{{0, 0}, {4, 0}, {2, 3}}
	if got := SimplifyPolygon(tri, 10); len(got) != 3 {
		t.Errorf("triangle simplified away: %v", got)
	}
}

func TestRectPropertyQuick(t *testing.T) {
	// Intersection is commutative and contained in both operands.
	f := func(ax, ay, aw, ah, bx, by, bw, bh uint8) bool {
		// widths/heights at least 1: Union deliberately ignores empty
		// rectangles, so the containment property only holds for
		// non-empty operands
		a := Rect{float64(ax), float64(ay), float64(ax) + float64(aw) + 1, float64(ay) + float64(ah) + 1}
		b := Rect{float64(bx), float64(by), float64(bx) + float64(bw) + 1, float64(by) + float64(bh) + 1}
		i1 := a.Intersect(b)
		i2 := b.Intersect(a)
		if i1 != i2 {
			return false
		}
		if !i1.Empty() {
			if !a.ContainsRect(i1) || !b.ContainsRect(i1) {
				return false
			}
		}
		u := a.Union(b)
		return u.ContainsRect(a) && u.ContainsRect(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPolygonAreaQuick(t *testing.T) {
	// A rectangle polygon's area equals the Rect area, any orientation.
	f := func(x, y uint8, w, h uint8) bool {
		if w == 0 || h == 0 {
			return true
		}
		x0, y0 := float64(x), float64(y)
		x1, y1 := x0+float64(w), y0+float64(h)
		pg := Polygon{{x0, y0}, {x1, y0}, {x1, y1}, {x0, y1}}
		rev := pg.EnsureCCW()
		return pg.Area() == float64(w)*float64(h) && rev.Area() == pg.Area()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSimplifyPreservesEndpointsQuick(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) < 2 {
			return true
		}
		pts := make([]Point, len(raw))
		for i, v := range raw {
			pts[i] = Pt(float64(i), float64(v))
		}
		out := SimplifyChain(pts, 3)
		return len(out) >= 2 && out[0] == pts[0] && out[len(out)-1] == pts[len(pts)-1]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

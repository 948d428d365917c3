package raster

import (
	"fmt"
	"math/rand"
	"testing"

	"maskfrac/internal/geom"
)

// poly builds a polygon from a flat list of x,y coordinates.
func poly(xy ...float64) geom.Polygon {
	pg := make(geom.Polygon, len(xy)/2)
	for i := range pg {
		pg[i] = geom.Pt(xy[2*i], xy[2*i+1])
	}
	return pg
}

// rasterize samples pg onto a fresh bitmap over the whole of g.
func rasterize(pg geom.Polygon, g Grid) *Bitmap {
	b := NewBitmap(g)
	RasterizeInto(b.Bits, g, g.Whole(), pg)
	return b
}

func TestGridCovering(t *testing.T) {
	g := GridCovering(geom.Rect{X0: 0, Y0: 0, X1: 10, Y1: 5}, 2, 1)
	if g.X0 != -2 || g.Y0 != -2 {
		t.Errorf("origin = %v %v", g.X0, g.Y0)
	}
	if g.W != 14 || g.H != 9 {
		t.Errorf("size = %d x %d", g.W, g.H)
	}
	if c := g.Center(0, 0); c != geom.Pt(-1.5, -1.5) {
		t.Errorf("Center(0,0) = %v", c)
	}
	b := g.Bounds()
	if b.X0 != -2 || b.X1 != 12 || b.Y0 != -2 || b.Y1 != 7 {
		t.Errorf("Bounds = %v", b)
	}
}

func TestGridIndexRoundTrip(t *testing.T) {
	g := Grid{Pitch: 1, W: 7, H: 5}
	for j := 0; j < g.H; j++ {
		for i := 0; i < g.W; i++ {
			k := g.Index(i, j)
			ri, rj := g.Coords(k)
			if ri != i || rj != j {
				t.Fatalf("round trip (%d,%d) -> %d -> (%d,%d)", i, j, k, ri, rj)
			}
		}
	}
	if g.Len() != 35 {
		t.Errorf("Len = %d", g.Len())
	}
}

func TestGridPixelOf(t *testing.T) {
	g := Grid{X0: 10, Y0: 20, Pitch: 2, W: 5, H: 5}
	i, j := g.PixelOf(geom.Pt(10.5, 21.5))
	if i != 0 || j != 0 {
		t.Errorf("PixelOf = (%d,%d)", i, j)
	}
	i, j = g.PixelOf(geom.Pt(19.9, 29.9))
	if i != 4 || j != 4 {
		t.Errorf("PixelOf corner = (%d,%d)", i, j)
	}
	i, j = g.PixelOf(geom.Pt(9, 19))
	if g.In(i, j) {
		t.Errorf("out-of-range point reported in grid: (%d,%d)", i, j)
	}
	if g.ClampX(-3) != 0 || g.ClampX(99) != 4 || g.ClampY(2) != 2 {
		t.Error("clamp failed")
	}
}

func TestBitmapBasics(t *testing.T) {
	b := NewBitmap(Grid{Pitch: 1, W: 4, H: 3})
	b.Set(1, 2, true)
	b.Set(3, 0, true)
	b.Set(-1, 0, true) // ignored
	if !b.Get(1, 2) || !b.Get(3, 0) {
		t.Error("Get after Set failed")
	}
	if b.Get(9, 9) {
		t.Error("out of range Get should be false")
	}
	if b.Count() != 2 {
		t.Errorf("Count = %d", b.Count())
	}
	c := b.Clone()
	c.Set(0, 0, true)
	if b.Get(0, 0) {
		t.Error("Clone aliases original")
	}
}

func TestFieldBasics(t *testing.T) {
	g := Grid{Pitch: 1, W: 3, H: 3}
	f := NewField(g)
	f.V[g.Index(1, 1)] = 0.75
	f.V[g.Index(2, 2)] = 0.25
	th := f.Threshold(0.5)
	if th.Count() != 1 || !th.Get(1, 1) {
		t.Error("Threshold failed")
	}
	c := f.Clone()
	c.V[g.Index(0, 0)] = 1
	if f.V[g.Index(0, 0)] != 0 {
		t.Error("Clone aliases original")
	}
}

func TestRasterizeSquare(t *testing.T) {
	pg := poly(0, 0, 4, 0, 4, 4, 0, 4)
	g := Grid{X0: -1, Y0: -1, Pitch: 1, W: 6, H: 6}
	b := rasterize(pg, g)
	// exactly the 16 pixels with centers in (0,4)^2
	if b.Count() != 16 {
		t.Errorf("Count = %d, want 16", b.Count())
	}
	if !b.Get(1, 1) || b.Get(0, 0) || b.Get(5, 3) {
		t.Error("wrong pixels set")
	}
}

func TestRasterizeLShape(t *testing.T) {
	l := poly(0, 0, 4, 0, 4, 2, 2, 2, 2, 4, 0, 4)
	g := Grid{X0: 0, Y0: 0, Pitch: 1, W: 4, H: 4}
	b := rasterize(l, g)
	if b.Count() != 12 {
		t.Errorf("Count = %d, want 12", b.Count())
	}
	if b.Get(3, 3) || b.Get(2, 2) {
		t.Error("notch pixels set")
	}
	if !b.Get(1, 3) || !b.Get(3, 1) {
		t.Error("arm pixels missing")
	}
}

func TestRasterizeMatchesContains(t *testing.T) {
	// pixel-center sampling must agree with point-in-polygon on a
	// non-rectilinear shape
	pg := poly(0, 0, 8, 0, 8, 8, 4, 4, 0, 8)
	g := Grid{X0: -1, Y0: -1, Pitch: 1, W: 10, H: 10}
	b := rasterize(pg, g)
	for j := 0; j < g.H; j++ {
		for i := 0; i < g.W; i++ {
			want := pg.Contains(g.Center(i, j))
			if got := b.Get(i, j); got != want {
				t.Errorf("pixel (%d,%d) center %v: raster=%v contains=%v", i, j, g.Center(i, j), got, want)
			}
		}
	}
}

// TestRasterizeIntoWindow checks that rasterizing into a window of a
// grid sets exactly the window's share of the whole-grid bitmap, on a
// grid whose origin is not a whole number of pixels.
func TestRasterizeIntoWindow(t *testing.T) {
	pgs := []geom.Polygon{
		poly(0.1, 0.1, 8.1, 0.1, 8.1, 8.1, 4.1, 4.1, 0.1, 8.1),
		poly(10.6, 2.6, 14.6, 2.6, 14.6, 9.6, 10.6, 9.6),
	}
	g := Grid{X0: -1.0 / 3, Y0: -0.9, Pitch: 1, W: 17, H: 12}
	whole := NewBitmap(g)
	for _, pg := range pgs {
		RasterizeInto(whole.Bits, g, g.Whole(), pg)
	}
	for _, w := range []Window{WindowOf(3, 2, 12, 9), WindowOf(0, 0, 16, 11), WindowOf(9, 5, 9, 5)} {
		bits := make([]bool, w.Len())
		for _, pg := range pgs {
			RasterizeInto(bits, g, w, pg)
		}
		for j := w.J0; j < w.J0+w.H; j++ {
			for i := w.I0; i < w.I0+w.W; i++ {
				if bits[w.Index(i, j)] != whole.Get(i, j) {
					t.Fatalf("window %+v pixel (%d,%d): %v, whole grid %v", w, i, j, bits[w.Index(i, j)], whole.Get(i, j))
				}
			}
		}
	}
}

func TestWindowOverlapsUnion(t *testing.T) {
	a, b, c := WindowOf(0, 0, 4, 4), WindowOf(4, 4, 6, 9), WindowOf(5, 0, 6, 3)
	if !a.Overlaps(b) || !b.Overlaps(a) {
		t.Error("windows sharing pixel (4,4) do not overlap")
	}
	if a.Overlaps(c) || c.Overlaps(a) {
		t.Error("side-by-side windows overlap")
	}
	if u := a.Union(c); u != WindowOf(0, 0, 6, 4) {
		t.Errorf("union = %+v", u)
	}
	g := Grid{X0: 0.5, Y0: 0.5, Pitch: 1, W: 10, H: 10}
	if w := g.Cover(geom.Rect{X0: -5, Y0: 2.2, X1: 3.4, Y1: 40}); w != WindowOf(0, 1, 2, 9) {
		t.Errorf("cover = %+v, want clamped (0,1)-(2,9)", w)
	}
}

func TestConnectedComponents(t *testing.T) {
	g := Grid{Pitch: 1, W: 6, H: 4}
	b := NewBitmap(g)
	// two blobs, one single pixel
	for _, p := range [][2]int{{0, 0}, {1, 0}, {0, 1}, {4, 2}, {4, 3}, {5, 2}, {2, 3}} {
		b.Set(p[0], p[1], true)
	}
	lab := ConnectedComponents(b)
	if lab.N != 3 {
		t.Fatalf("N = %d, want 3", lab.N)
	}
	if lab.L[g.Index(0, 0)] != lab.L[g.Index(1, 0)] {
		t.Error("adjacent pixels in different components")
	}
	if lab.L[g.Index(0, 0)] == lab.L[g.Index(4, 2)] {
		t.Error("separate blobs share a component")
	}
	boxes := lab.Boxes()
	total := 0
	for _, bx := range boxes {
		total += bx.Count
	}
	if total != 7 {
		t.Errorf("total count = %d, want 7", total)
	}
	for _, bx := range boxes {
		if bx.Count == 1 {
			if bx.I0 != 2 || bx.J0 != 3 || bx.I1 != 2 || bx.J1 != 3 {
				t.Errorf("singleton box = %+v", bx)
			}
		}
	}
}

func TestConnectedComponentsDiagonal(t *testing.T) {
	// diagonal pixels are NOT 4-connected
	g := Grid{Pitch: 1, W: 3, H: 3}
	b := NewBitmap(g)
	b.Set(0, 0, true)
	b.Set(1, 1, true)
	if lab := ConnectedComponents(b); lab.N != 2 {
		t.Errorf("N = %d, want 2 (4-connectivity)", lab.N)
	}
}

func TestContoursSquare(t *testing.T) {
	g := Grid{Pitch: 1, W: 6, H: 6}
	b := NewBitmap(g)
	for j := 1; j < 4; j++ {
		for i := 1; i < 4; i++ {
			b.Set(i, j, true)
		}
	}
	loops := Contours(b)
	if len(loops) != 1 {
		t.Fatalf("loops = %d, want 1", len(loops))
	}
	pg := loops[0]
	if len(pg) != 4 {
		t.Errorf("vertices = %d, want 4 (collinear collapsed): %v", len(pg), pg)
	}
	if !pg.IsCCW() {
		t.Error("outer contour not CCW")
	}
	if pg.Area() != 9 {
		t.Errorf("area = %v, want 9", pg.Area())
	}
}

func TestContoursHole(t *testing.T) {
	g := Grid{Pitch: 1, W: 7, H: 7}
	b := NewBitmap(g)
	for j := 1; j < 6; j++ {
		for i := 1; i < 6; i++ {
			b.Set(i, j, true)
		}
	}
	b.Set(3, 3, false) // hole
	loops := Contours(b)
	if len(loops) != 2 {
		t.Fatalf("loops = %d, want 2", len(loops))
	}
	var outer, hole geom.Polygon
	for _, l := range loops {
		if l.IsCCW() {
			outer = l
		} else {
			hole = l
		}
	}
	if outer == nil || hole == nil {
		t.Fatal("missing outer or hole loop")
	}
	if outer.Area() != 25 || hole.Area() != 1 {
		t.Errorf("areas = %v %v", outer.Area(), hole.Area())
	}
}

func TestContoursDeterministic(t *testing.T) {
	// two blobs, one with a hole: every call must return the same
	// loops, in the same order, starting at the same vertex
	g := Grid{Pitch: 1, W: 14, H: 8}
	b := NewBitmap(g)
	for j := 1; j < 6; j++ {
		for i := 1; i < 6; i++ {
			b.Set(i, j, true)
		}
		for i := 8; i < 12; i++ {
			b.Set(i, j+1, true)
		}
	}
	b.Set(3, 3, false) // hole in the first blob
	want := fmt.Sprint(Contours(b))
	for k := 0; k < 50; k++ {
		if got := fmt.Sprint(Contours(b)); got != want {
			t.Fatalf("call %d: contours %s, first call %s", k, got, want)
		}
	}
}

func TestContoursCheckerboard(t *testing.T) {
	// diagonal pixels stay on separate loops (4-connectivity)
	g := Grid{Pitch: 1, W: 4, H: 4}
	b := NewBitmap(g)
	b.Set(1, 1, true)
	b.Set(2, 2, true)
	loops := Contours(b)
	if len(loops) != 2 {
		t.Fatalf("loops = %d, want 2", len(loops))
	}
	for _, l := range loops {
		if l.Area() != 1 {
			t.Errorf("loop area = %v, want 1", l.Area())
		}
	}
}

func TestContoursRoundTrip(t *testing.T) {
	// rasterize an L, trace it, re-rasterize the contour: same bitmap
	l := poly(0, 0, 4, 0, 4, 2, 2, 2, 2, 4, 0, 4)
	g := Grid{X0: -1, Y0: -1, Pitch: 1, W: 7, H: 7}
	b := rasterize(l, g)
	pg := LargestContour(b)
	if pg == nil {
		t.Fatal("no contour")
	}
	b2 := rasterize(pg, g)
	for k := range b.Bits {
		if b.Bits[k] != b2.Bits[k] {
			i, j := g.Coords(k)
			t.Errorf("pixel (%d,%d) differs after round trip", i, j)
		}
	}
}

func TestLargestContourEmpty(t *testing.T) {
	if pg := LargestContour(NewBitmap(Grid{Pitch: 1, W: 3, H: 3})); pg != nil {
		t.Errorf("empty bitmap contour = %v", pg)
	}
}

func TestContoursFuzzRoundTrip(t *testing.T) {
	// random connected unions of rectangles: tracing the contours and
	// re-rasterizing every CCW loop (minus CW holes) must reproduce the
	// original bitmap exactly
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 40; trial++ {
		g := Grid{Pitch: 1, W: 36, H: 36}
		b := NewBitmap(g)
		n := 1 + rng.Intn(5)
		for k := 0; k < n; k++ {
			x0, y0 := 2+rng.Intn(24), 2+rng.Intn(24)
			w, h := 2+rng.Intn(10), 2+rng.Intn(10)
			for j := y0; j < y0+h && j < 34; j++ {
				for i := x0; i < x0+w && i < 34; i++ {
					b.Set(i, j, true)
				}
			}
		}
		loops := Contours(b)
		rebuilt := NewBitmap(g)
		for _, pg := range loops {
			if !pg.IsCCW() {
				continue // holes handled below
			}
			fill := rasterize(pg, g)
			for k, v := range fill.Bits {
				if v {
					rebuilt.Bits[k] = true
				}
			}
		}
		for _, pg := range loops {
			if pg.IsCCW() {
				continue
			}
			hole := rasterize(pg.EnsureCCW(), g)
			for k, v := range hole.Bits {
				if v {
					rebuilt.Bits[k] = false
				}
			}
		}
		for k := range b.Bits {
			if b.Bits[k] != rebuilt.Bits[k] {
				i, j := g.Coords(k)
				t.Fatalf("trial %d: pixel (%d,%d) differs after contour round trip", trial, i, j)
			}
		}
	}
}

// Package raster provides the pixel-grid substrate for model-based mask
// fracturing: polygon rasterization at the Δp sampling pitch, scalar
// dose fields, Euclidean distance transforms, connected-component
// labeling and contour extraction from bitmaps.
//
// The fracturing problem is defined on pixels sampled at 1 nm pitch
// (paper §2): the target shape is rasterized, pixels are classified into
// Pon/Poff/Px, and shot intensity is accumulated per pixel.
package raster

import (
	"fmt"
	"math"

	"maskfrac/internal/geom"
)

// Grid describes a regular pixel grid. Pixel (i, j) covers the square
// [X0+i·Pitch, X0+(i+1)·Pitch] × [Y0+j·Pitch, Y0+(j+1)·Pitch] and is
// sampled at its center. i runs 0..W-1 (x), j runs 0..H-1 (y).
type Grid struct {
	X0, Y0 float64 // world coordinate of the lower-left grid corner
	Pitch  float64 // pixel size Δp in nm
	W, H   int     // pixel counts
}

// GridCovering returns a Grid with pitch Δp covering r expanded by
// margin on every side. The origin is aligned so pixel boundaries land
// on multiples of pitch relative to r's lower-left corner.
func GridCovering(r geom.Rect, margin, pitch float64) Grid {
	x0 := r.X0 - margin
	y0 := r.Y0 - margin
	w := int(math.Ceil((r.W() + 2*margin) / pitch))
	h := int(math.Ceil((r.H() + 2*margin) / pitch))
	if w < 1 {
		w = 1
	}
	if h < 1 {
		h = 1
	}
	return Grid{X0: x0, Y0: y0, Pitch: pitch, W: w, H: h}
}

// Center returns the world coordinate of the center of pixel (i, j).
func (g Grid) Center(i, j int) geom.Point {
	return geom.Pt(g.X0+(float64(i)+0.5)*g.Pitch, g.Y0+(float64(j)+0.5)*g.Pitch)
}

// Index returns the linear index of pixel (i, j).
func (g Grid) Index(i, j int) int { return j*g.W + i }

// Coords returns the (i, j) pixel coordinates for linear index k.
func (g Grid) Coords(k int) (i, j int) { return k % g.W, k / g.W }

// Len returns the number of pixels in the grid.
func (g Grid) Len() int { return g.W * g.H }

// In reports whether (i, j) is a valid pixel coordinate.
func (g Grid) In(i, j int) bool { return i >= 0 && i < g.W && j >= 0 && j < g.H }

// PixelOf returns the pixel coordinates containing world point p.
// The result may be out of range; check with In.
func (g Grid) PixelOf(p geom.Point) (i, j int) {
	return int(math.Floor((p.X - g.X0) / g.Pitch)), int(math.Floor((p.Y - g.Y0) / g.Pitch))
}

// ClampX clamps pixel column i into [0, W-1].
func (g Grid) ClampX(i int) int { return clamp(i, 0, g.W-1) }

// ClampY clamps pixel row j into [0, H-1].
func (g Grid) ClampY(j int) int { return clamp(j, 0, g.H-1) }

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Bounds returns the world-coordinate rectangle covered by the grid.
func (g Grid) Bounds() geom.Rect {
	return geom.Rect{X0: g.X0, Y0: g.Y0, X1: g.X0 + float64(g.W)*g.Pitch, Y1: g.Y0 + float64(g.H)*g.Pitch}
}

// Window is a rectangle of a grid's pixels held in a row-major buffer
// of its own: pixel (i, j) of the grid, for I0 ≤ i < I0+W and
// J0 ≤ j < J0+H, is entry Index(i, j) of the buffer. A window keeps
// the grid's origin and addresses its pixels by their grid indices, so
// it samples every pixel at exactly the coordinate the whole grid
// does.
type Window struct {
	I0, J0 int // grid indices of the window's first pixel
	W, H   int // pixel counts
}

// WindowOf returns the window of the pixels from (i0, j0) to (i1, j1),
// inclusive.
func WindowOf(i0, j0, i1, j1 int) Window {
	return Window{I0: i0, J0: j0, W: i1 - i0 + 1, H: j1 - j0 + 1}
}

// Whole returns the window of every pixel of g.
func (g Grid) Whole() Window { return Window{W: g.W, H: g.H} }

// Cover returns the window of the pixels from the one holding r's
// lower-left corner to the one holding its upper-right corner, clamped
// to the grid.
func (g Grid) Cover(r geom.Rect) Window {
	i0, j0 := g.PixelOf(geom.Pt(r.X0, r.Y0))
	i1, j1 := g.PixelOf(geom.Pt(r.X1, r.Y1))
	return WindowOf(g.ClampX(i0), g.ClampY(j0), g.ClampX(i1), g.ClampY(j1))
}

// Len returns the number of pixels in the window.
func (w Window) Len() int { return w.W * w.H }

// Index returns the buffer index of grid pixel (i, j).
func (w Window) Index(i, j int) int { return (j-w.J0)*w.W + i - w.I0 }

// Overlaps reports whether the windows share a pixel.
func (w Window) Overlaps(o Window) bool {
	return w.I0 < o.I0+o.W && o.I0 < w.I0+w.W && w.J0 < o.J0+o.H && o.J0 < w.J0+w.H
}

// Union returns the smallest window holding both.
func (w Window) Union(o Window) Window {
	return WindowOf(min(w.I0, o.I0), min(w.J0, o.J0),
		max(w.I0+w.W, o.I0+o.W)-1, max(w.J0+w.H, o.J0+o.H)-1)
}

// Bitmap is a boolean image over a Grid.
type Bitmap struct {
	Grid Grid
	Bits []bool // length Grid.Len(), row-major
}

// NewBitmap returns an all-false bitmap over g.
func NewBitmap(g Grid) *Bitmap {
	return &Bitmap{Grid: g, Bits: make([]bool, g.Len())}
}

// Get reports the value at (i, j); out-of-range pixels are false.
func (b *Bitmap) Get(i, j int) bool {
	if !b.Grid.In(i, j) {
		return false
	}
	return b.Bits[b.Grid.Index(i, j)]
}

// Set sets the value at (i, j); out-of-range coordinates are ignored.
func (b *Bitmap) Set(i, j int, v bool) {
	if b.Grid.In(i, j) {
		b.Bits[b.Grid.Index(i, j)] = v
	}
}

// Count returns the number of true pixels.
func (b *Bitmap) Count() int {
	n := 0
	for _, v := range b.Bits {
		if v {
			n++
		}
	}
	return n
}

// Clone returns a deep copy of b.
func (b *Bitmap) Clone() *Bitmap {
	out := NewBitmap(b.Grid)
	copy(out.Bits, b.Bits)
	return out
}

// Field is a float64 image over a Grid (for example the total dose
// Itot(x, y)).
type Field struct {
	Grid Grid
	V    []float64 // length Grid.Len(), row-major
}

// NewField returns an all-zero field over g.
func NewField(g Grid) *Field {
	return &Field{Grid: g, V: make([]float64, g.Len())}
}

// At returns the value at (i, j); out-of-range pixels are 0.
func (f *Field) At(i, j int) float64 {
	if !f.Grid.In(i, j) {
		return 0
	}
	return f.V[f.Grid.Index(i, j)]
}

// SetAt stores v at (i, j); out-of-range coordinates are ignored.
func (f *Field) SetAt(i, j int, v float64) {
	if f.Grid.In(i, j) {
		f.V[f.Grid.Index(i, j)] = v
	}
}

// Threshold returns the bitmap of pixels with value >= iso.
func (f *Field) Threshold(iso float64) *Bitmap {
	out := NewBitmap(f.Grid)
	for k, v := range f.V {
		out.Bits[k] = v >= iso
	}
	return out
}

// Clone returns a deep copy of f.
func (f *Field) Clone() *Field {
	out := NewField(f.Grid)
	copy(out.V, f.V)
	return out
}

// Rasterize samples polygon pg onto grid g: a pixel is set when its
// center lies inside the polygon (even-odd rule), matching the paper's
// pixel sampling of the target shape. It is RasterizeInto on a fresh
// bitmap.
func Rasterize(pg geom.Polygon, g Grid) (*Bitmap, error) {
	if err := pg.Validate(); err != nil {
		return nil, fmt.Errorf("raster: %w", err)
	}
	b := NewBitmap(g)
	RasterizeInto(b.Bits, g, g.Whole(), pg)
	return b, nil
}

// RasterizeInto sets the pixels of window w of grid g whose center lies
// inside the valid polygon pg (even-odd rule); bits is the window's
// buffer. Pixels already set stay set, so several targets rasterize
// into one bitmap. Scanline implementation over the rows pg spans:
// O(rows·n) plus fill.
func RasterizeInto(bits []bool, g Grid, w Window, pg geom.Polygon) {
	n := len(pg)
	box := pg.Bounds()
	// no row outside the box crosses pg; one spare row on each side
	// absorbs the rounding of this bound, and the crossing test below
	// decides every row exactly
	jLo := max(int(math.Floor((box.Y0-g.Y0)/g.Pitch-0.5))-1, w.J0)
	jHi := min(int(math.Ceil((box.Y1-g.Y0)/g.Pitch-0.5))+1, w.J0+w.H-1)
	xs := make([]float64, 0, 16)
	for j := jLo; j <= jHi; j++ {
		y := g.Y0 + (float64(j)+0.5)*g.Pitch
		xs = xs[:0]
		for i := 0; i < n; i++ {
			a, c := pg[i], pg[(i+1)%n]
			if (a.Y > y) != (c.Y > y) {
				x := (c.X-a.X)*(y-a.Y)/(c.Y-a.Y) + a.X
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			continue
		}
		sortFloats(xs)
		row := (j - w.J0) * w.W
		for k := 0; k+1 < len(xs); k += 2 {
			// Half-open span [lo, hi): a pixel center exactly at lo is
			// inside, exactly at hi is outside. This matches the
			// even-odd rule of geom.Polygon.Contains.
			lo, hi := xs[k], xs[k+1]
			i0 := int(math.Ceil((lo-g.X0)/g.Pitch - 0.5))
			i1 := int(math.Ceil((hi-g.X0)/g.Pitch-0.5)) - 1
			for i := max(i0, w.I0); i <= i1 && i < w.I0+w.W; i++ {
				bits[row+i-w.I0] = true
			}
		}
	}
}

// sortFloats sorts a small float slice in place (insertion sort; the
// crossing lists per scanline are tiny).
func sortFloats(a []float64) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

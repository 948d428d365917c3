// Package shotdict enumerates candidate shot dictionaries shared by the
// greedy set cover and matching pursuit baselines: the maximal
// axis-aligned rectangles inscribed in the rasterized target shape,
// plus biased variants.
package shotdict

import (
	"math"
	"sort"

	"maskfrac/internal/cover"
	"maskfrac/internal/geom"
	"maskfrac/internal/raster"
)

// Candidates enumerates the candidate shot dictionary for a problem:
// maximal inscribed rectangles of the target bitmap with the minimum
// shot size enforced, plus ±1 pixel biased variants of each (letting
// greedy methods compensate edge dose).
func Candidates(p *cover.Problem) []geom.Rect {
	base := MaximalRects(p.Inside)
	pitch := p.Params.Pitch
	seen := make(map[geom.Rect]bool)
	var out []geom.Rect
	add := func(r geom.Rect) {
		r = p.Legalize(r)
		if !seen[r] {
			seen[r] = true
			out = append(out, r)
		}
	}
	for _, r := range base {
		add(r)
		add(r.Inset(-pitch))
		add(r.Inset(pitch))
	}
	return out
}

// pixelBox is an inclusive pixel-coordinate rectangle.
type pixelBox struct{ i0, i1, j0, j1 int }

// MaximalRects enumerates the maximal axis-aligned rectangles of the
// true region of b, in world coordinates, using the histogram-stack
// sweep: one histogram of column heights per row, widest rectangle per
// (height, anchor), kept only when it cannot grow downward.
func MaximalRects(b *raster.Bitmap) []geom.Rect {
	g := b.Grid
	heights := make([]int, g.W)
	seen := make(map[pixelBox]bool)
	var boxes []pixelBox
	for j := 0; j < g.H; j++ {
		for i := 0; i < g.W; i++ {
			if b.Bits[g.Index(i, j)] {
				heights[i]++
			} else {
				heights[i] = 0
			}
		}
		type st struct{ start, h int }
		var stack []st
		for i := 0; i <= g.W; i++ {
			h := 0
			if i < g.W {
				h = heights[i]
			}
			start := i
			for len(stack) > 0 && stack[len(stack)-1].h > h {
				top := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				box := pixelBox{i0: top.start, i1: i - 1, j0: j - top.h + 1, j1: j}
				if !extendsDown(b, box) && !seen[box] {
					seen[box] = true
					boxes = append(boxes, box)
				}
				start = top.start
			}
			if h > 0 && (len(stack) == 0 || stack[len(stack)-1].h < h) {
				stack = append(stack, st{start: start, h: h})
			}
		}
	}
	out := make([]geom.Rect, 0, len(boxes))
	for _, box := range boxes {
		out = append(out, geom.Rect{
			X0: g.X0 + float64(box.i0)*g.Pitch,
			Y0: g.Y0 + float64(box.j0)*g.Pitch,
			X1: g.X0 + float64(box.i1+1)*g.Pitch,
			Y1: g.Y0 + float64(box.j1+1)*g.Pitch,
		})
	}
	return out
}

// extendsDown reports whether the pixel box could grow one row down,
// meaning a taller maximal rectangle will be emitted at a later row.
func extendsDown(b *raster.Bitmap, box pixelBox) bool {
	if box.j1+1 >= b.Grid.H {
		return false
	}
	for i := box.i0; i <= box.i1; i++ {
		if !b.Bits[b.Grid.Index(i, box.j1+1)] {
			return false
		}
	}
	return true
}

// Rich enumerates a denser dictionary than Candidates: all rectangles
// spanned by pairs of anchor coordinates (the edge coordinates of the
// maximal inscribed rectangles, thinned to at most maxPerAxis values
// per axis), filtered to legal size and at least minInterior of their
// area inside the target. Interior fractions are computed in O(1) per
// candidate with a summed-area table, so tens of thousands of
// candidates are cheap. Matching pursuit uses this dictionary.
func Rich(p *cover.Problem, maxPerAxis int, minInterior float64) []geom.Rect {
	if maxPerAxis <= 1 {
		maxPerAxis = 24
	}
	base := MaximalRects(p.Inside)
	xs := map[float64]bool{}
	ys := map[float64]bool{}
	for _, r := range base {
		xs[r.X0], xs[r.X1] = true, true
		ys[r.Y0], ys[r.Y1] = true, true
	}
	ax := thin(keys(xs), maxPerAxis)
	ay := thin(keys(ys), maxPerAxis)
	sat := insideSAT(p.Inside)
	g := p.Grid
	lmin := p.Params.Lmin
	var out []geom.Rect
	for i := 0; i < len(ax); i++ {
		for k := i + 1; k < len(ax); k++ {
			if ax[k]-ax[i] < lmin {
				continue
			}
			for j := 0; j < len(ay); j++ {
				for l := j + 1; l < len(ay); l++ {
					if ay[l]-ay[j] < lmin {
						continue
					}
					r := geom.Rect{X0: ax[i], Y0: ay[j], X1: ax[k], Y1: ay[l]}
					in := boxCount(g, sat, r)
					pixels := r.Area() / (g.Pitch * g.Pitch)
					if float64(in) >= minInterior*pixels {
						out = append(out, r)
					}
				}
			}
		}
	}
	return out
}

// keys returns the sorted keys of a float set.
func keys(m map[float64]bool) []float64 {
	out := make([]float64, 0, len(m))
	for v := range m {
		out = append(out, v)
	}
	sort.Float64s(out)
	return out
}

// thin uniformly subsamples v down to at most n values, keeping the
// first and last.
func thin(v []float64, n int) []float64 {
	if len(v) <= n {
		return v
	}
	out := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, v[i*(len(v)-1)/(n-1)])
	}
	return out
}

// insideSAT builds the summed-area table of the inside bitmap:
// sat[j*(W+1)+i] counts true pixels with coordinates < (i, j).
func insideSAT(b *raster.Bitmap) []int {
	g := b.Grid
	w := g.W + 1
	sat := make([]int, w*(g.H+1))
	for j := 0; j < g.H; j++ {
		row := 0
		for i := 0; i < g.W; i++ {
			if b.Bits[g.Index(i, j)] {
				row++
			}
			sat[(j+1)*w+i+1] = sat[j*w+i+1] + row
		}
	}
	return sat
}

// boxCount returns the number of true pixels whose centers lie in r.
func boxCount(g raster.Grid, sat []int, r geom.Rect) int {
	i0 := int(math.Ceil((r.X0-g.X0)/g.Pitch - 0.5))
	j0 := int(math.Ceil((r.Y0-g.Y0)/g.Pitch - 0.5))
	i1 := int(math.Ceil((r.X1-g.X0)/g.Pitch-0.5)) - 1
	j1 := int(math.Ceil((r.Y1-g.Y0)/g.Pitch-0.5)) - 1
	i0, j0 = g.ClampX(i0), g.ClampY(j0)
	i1, j1 = g.ClampX(i1), g.ClampY(j1)
	if i1 < i0 || j1 < j0 {
		return 0
	}
	w := g.W + 1
	return sat[(j1+1)*w+i1+1] - sat[j0*w+i1+1] - sat[(j1+1)*w+i0] + sat[j0*w+i0]
}

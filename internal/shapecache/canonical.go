// Package shapecache is a content-addressed result cache for mask
// fracturing. A full mask holds billions of polygons but most are
// repeats of a small dictionary of shapes (paper §2), so fracturing
// results are cached under a canonical form of the target polygon:
// congruent shapes — equal up to translation and the eight axis-aligned
// symmetries (rotations by multiples of 90° and mirrors) — share one
// cache entry, and each congruence class pays the solver cost once.
package shapecache

import (
	"crypto/sha256"
	"math"
	"slices"

	"maskfrac/internal/geom"
	"maskfrac/internal/maskio"
)

// Transform is one of the eight axis-aligned symmetries of the plane
// (the dihedral group D4): the identity, rotations by 90/180/270
// degrees, and the four reflections.
type Transform uint8

const (
	Identity      Transform = iota // (x, y)
	Rot90                          // (-y, x)
	Rot180                         // (-x, -y)
	Rot270                         // (y, -x)
	MirrorX                        // (-x, y)  reflect across the vertical axis
	MirrorY                        // (x, -y)  reflect across the horizontal axis
	Transpose                      // (y, x)   reflect across the main diagonal
	AntiTranspose                  // (-y, -x) reflect across the anti-diagonal
	numTransforms
)

// Apply maps a point through the transform.
func (t Transform) Apply(p geom.Point) geom.Point {
	switch t {
	case Rot90:
		return geom.Pt(-p.Y, p.X)
	case Rot180:
		return geom.Pt(-p.X, -p.Y)
	case Rot270:
		return geom.Pt(p.Y, -p.X)
	case MirrorX:
		return geom.Pt(-p.X, p.Y)
	case MirrorY:
		return geom.Pt(p.X, -p.Y)
	case Transpose:
		return geom.Pt(p.Y, p.X)
	case AntiTranspose:
		return geom.Pt(-p.Y, -p.X)
	default:
		return p
	}
}

// ApplyRect maps an axis-parallel rectangle through the transform; the
// image of an axis-parallel rectangle under any D4 element is again
// axis-parallel.
func (t Transform) ApplyRect(r geom.Rect) geom.Rect {
	return geom.RectFromCorners(t.Apply(geom.Pt(r.X0, r.Y0)), t.Apply(geom.Pt(r.X1, r.Y1)))
}

// Inverse returns the transform undoing t. All D4 elements are
// involutions except the quarter turns, which invert each other.
func (t Transform) Inverse() Transform {
	switch t {
	case Rot90:
		return Rot270
	case Rot270:
		return Rot90
	default:
		return t
	}
}

// Mirrors reports whether the transform reverses orientation
// (determinant -1).
func (t Transform) Mirrors() bool {
	return t >= MirrorX
}

// Canonical relates a query polygon to its canonical form: for every
// query point q, the canonical-frame point is T(q) - Off.
type Canonical struct {
	Poly geom.Polygon // canonical polygon: T(query) translated to the origin
	T    Transform    // symmetry applied to the query
	Off  geom.Point   // bounding-box minimum of T(query)
}

// Canonicalize computes the canonical form of pg: the lexicographically
// least vertex sequence over the eight axis-aligned symmetries, after
// translating the transformed shape's bounding-box minimum to the
// origin, orienting counterclockwise and rotating the vertex list to
// start at its least vertex. Congruent polygons — equal up to vertex
// list rotation, orientation, translation and any D4 symmetry — map to
// the same canonical polygon, so its bytes can serve as a cache key.
//
// Every image's least vertex is (0, d) for some d, and a sequence
// starting with a greater d loses at its first vertex, so only the
// images with the least d can win. One pass over the vertices lying on
// the bounding box's sides yields every image's d (leastVertices).
// Only the images with the least d — one on most curved clips, several
// on a shape with a symmetry or with vertices at bounding-box corners —
// are filled and searched for their least rotation, in transform
// order, and the first transform wins ties. A lone candidate is written
// straight into the result; only a tie needs a second buffer. A
// bounding box that is not finite (a NaN or infinite coordinate) leaves
// no order to argue from, and all eight images are searched.
//
// Float caveat: translation subtracts the bounding-box minimum, so two
// translated copies of a shape canonicalize identically only when the
// subtraction is exact (always true for integer-nanometer and other
// dyadic coordinates, the common case for mask data). Inexact cases
// fall back to a harmless cache miss, never a wrong hit.
func Canonicalize(pg geom.Polygon) Canonical { return CanonicalizeInto(nil, pg) }

// CanonicalizeInto is Canonicalize writing into buf's backing array
// instead of allocating: the canonical polygon's len(pg) vertices when
// cap(buf) holds them, and, when images tie, the second image searched
// in the next len(pg) when cap(buf) holds twice that. What buf cannot
// hold is allocated. The result's Poly may alias buf, so a caller
// reusing buf must be done with Poly first.
func CanonicalizeInto(buf, pg geom.Polygon) Canonical {
	reversed := !pg.IsCCW()
	bounds := pg.Bounds()
	var ims [numTransforms]image
	cands := ims[:0]
	least, ordered := leastVertices(pg, bounds)
	dmin := math.Inf(1)
	for t := Identity; t < numTransforms; t++ {
		im := newImage(pg, reversed, bounds, t)
		if ordered {
			// the image of least[t] is the image's least vertex (0, d)
			d := t.Apply(least[t]).Y - im.off.Y
			if d > dmin {
				continue
			}
			if d < dmin {
				cands, dmin = cands[:0], d
			}
		}
		cands = append(cands, im)
	}

	n := len(pg)
	if cap(buf) < n {
		buf = make(geom.Polygon, n)
	}
	out := buf[:n]
	best := cands[0]
	best.fill(out, 0)
	bestStart := leastRotation(out)
	if len(cands) > 1 {
		var scratch geom.Polygon
		if cap(buf) >= 2*n {
			scratch = buf[n : 2*n]
		} else {
			scratch = make(geom.Polygon, n)
		}
		for _, im := range cands[1:] {
			im.fill(scratch, 0)
			start := leastRotation(scratch)
			if cmpRotations(scratch, start, out, bestStart) < 0 {
				best, bestStart = im, start
				out, scratch = scratch, out
			}
		}
	}
	if bestStart != 0 { // rotate the winner in place to start there
		slices.Reverse(out[:bestStart])
		slices.Reverse(out[bestStart:])
		slices.Reverse(out)
	}
	return Canonical{Poly: out, T: best.t, Off: best.off}
}

// leastVertices returns, for each transform t, a vertex of pg that t
// maps to its image's least vertex. The image's least X is 0, taken by
// the vertices on the bounding-box side that t maps to the image's left
// side, and among those its least Y is taken by the one with the least
// or greatest coordinate along that side. One pass over pg finds the
// extreme coordinates along each side; vertices off the sides are
// never compared further. ordered is false when the bounding box is not
// finite: an infinite coordinate makes some images' coordinates NaN
// (∞ − ∞), which the (X, Y) order cannot rank.
func leastVertices(pg geom.Polygon, b geom.Rect) (least [numTransforms]geom.Point, ordered bool) {
	if !finite(b.X0) || !finite(b.Y0) || !finite(b.X1) || !finite(b.Y1) {
		return least, false
	}
	inf := math.Inf(1)
	// lo and hi coordinates along the left, right, bottom and top sides
	left, right, bottom, top := [2]float64{inf, -inf}, [2]float64{inf, -inf}, [2]float64{inf, -inf}, [2]float64{inf, -inf}
	for _, p := range pg {
		if p.X == b.X0 {
			left = [2]float64{min(left[0], p.Y), max(left[1], p.Y)}
		}
		if p.X == b.X1 {
			right = [2]float64{min(right[0], p.Y), max(right[1], p.Y)}
		}
		if p.Y == b.Y0 {
			bottom = [2]float64{min(bottom[0], p.X), max(bottom[1], p.X)}
		}
		if p.Y == b.Y1 {
			top = [2]float64{min(top[0], p.X), max(top[1], p.X)}
		}
	}
	return [numTransforms]geom.Point{
		Identity:      {X: b.X0, Y: left[0]},
		Rot90:         {X: top[0], Y: b.Y1},
		Rot180:        {X: b.X1, Y: right[1]},
		Rot270:        {X: bottom[1], Y: b.Y0},
		MirrorX:       {X: b.X1, Y: right[0]},
		MirrorY:       {X: b.X0, Y: left[1]},
		Transpose:     {X: bottom[0], Y: b.Y0},
		AntiTranspose: {X: top[1], Y: b.Y1},
	}, true
}

// finite reports whether v is neither infinite nor NaN.
func finite(v float64) bool { return v-v == 0 }

// image reads the vertex sequence of one D4 image of a polygon, in the
// frame where its bounding-box minimum is the origin, without building
// it: vertex j is T applied to a source vertex, minus the offset. The
// image runs counterclockwise, so it reads the source backwards when
// exactly one of the source's clockwise orientation and T's mirroring
// reverses it.
type image struct {
	src      geom.Polygon
	t        Transform
	off      geom.Point
	backward bool
}

// newImage returns the image of src under t. The offset is the minimum
// corner of T applied to src's bounding box, which is exactly the
// bounding-box minimum of the transformed vertices: D4 only swaps and
// negates coordinates, and the least of the negated values is the
// negated greatest, bit for bit, signed zeros included.
func newImage(src geom.Polygon, reversed bool, bounds geom.Rect, t Transform) image {
	r := t.ApplyRect(bounds)
	return image{src: src, t: t, off: geom.Pt(r.X0, r.Y0), backward: reversed != t.Mirrors()}
}

// fill writes the image's vertices into dst, from vertex start on.
func (im *image) fill(dst geom.Polygon, start int) {
	src, t, off, backward := im.src, im.t, im.off, im.backward
	n := len(src)
	for k := range dst {
		j := wrap(start+k, n)
		if backward {
			j = n - 1 - j
		}
		// off is the exact minimum, -0 below +0, so no difference is -0
		dst[k] = t.Apply(src[j]).Sub(off)
	}
}

// wrap reduces an index in [0, 2n) to [0, n).
func wrap(i, n int) int {
	if i >= n {
		i -= n
	}
	return i
}

// ToCanonical maps query-frame shots into the canonical frame.
func (c Canonical) ToCanonical(shots []geom.Rect) []geom.Rect {
	out := make([]geom.Rect, len(shots))
	for i, s := range shots {
		r := c.T.ApplyRect(s)
		out[i] = geom.Rect{X0: r.X0 - c.Off.X, Y0: r.Y0 - c.Off.Y, X1: r.X1 - c.Off.X, Y1: r.Y1 - c.Off.Y}
	}
	return out
}

// FromCanonical maps canonical-frame shots back into the query frame.
func (c Canonical) FromCanonical(shots []geom.Rect) []geom.Rect {
	inv := c.T.Inverse()
	out := make([]geom.Rect, len(shots))
	for i, s := range shots {
		r := geom.Rect{X0: s.X0 + c.Off.X, Y0: s.Y0 + c.Off.Y, X1: s.X1 + c.Off.X, Y1: s.Y1 + c.Off.Y}
		out[i] = inv.ApplyRect(r)
	}
	return out
}

// Key identifies a cached solution: the hash of the canonical polygon
// plus whatever solver configuration the caller mixes in.
type Key [sha256.Size]byte

// KeyWith hashes the canonical polygon together with extra bytes
// describing the solver configuration (parameters, method, options).
// The polygon's maskio.AppendPolygon encoding is hashed in stack-sized
// chunks of vertices, so keying allocates nothing.
func (c Canonical) KeyWith(extra []byte) Key {
	var chunk [4 + keyChunkVertices*16]byte
	h := sha256.New()
	h.Write(maskio.AppendPolygonHeader(chunk[:0], len(c.Poly)))
	for pts := c.Poly; len(pts) > 0; {
		k := min(len(pts), keyChunkVertices)
		h.Write(maskio.AppendPoints(chunk[:0], pts[:k]))
		pts = pts[k:]
	}
	h.Write(extra)
	var key Key
	h.Sum(key[:0])
	return key
}

// keyChunkVertices is how many vertices KeyWith encodes per hash write.
const keyChunkVertices = 64

// leastRotation returns the start of the rotation of pg yielding the
// lexicographically least sequence. Candidate starts are the
// occurrences of the least vertex; ties between equal vertices are
// broken by comparing the full sequences, and the earliest start wins.
func leastRotation(pg geom.Polygon) int {
	start := 0
	for i := 1; i < len(pg); i++ {
		switch cmpPoint(pg[i], pg[start]) {
		case -1:
			start = i
		case 0:
			if cmpRotations(pg, i, pg, start) < 0 {
				start = i
			}
		}
	}
	return start
}

// cmpPoint orders points by (X, Y).
func cmpPoint(a, b geom.Point) int {
	switch {
	case a.X < b.X:
		return -1
	case a.X > b.X:
		return 1
	case a.Y < b.Y:
		return -1
	case a.Y > b.Y:
		return 1
	}
	return 0
}

// cmpRotations compares the rotation of a starting at i with the
// equally long rotation of b starting at j.
func cmpRotations(a geom.Polygon, i int, b geom.Polygon, j int) int {
	n := len(a)
	for k := 0; k < n; k++ {
		if c := cmpPoint(a[wrap(i+k, n)], b[wrap(j+k, n)]); c != 0 {
			return c
		}
	}
	return 0
}

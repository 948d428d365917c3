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
// The search builds no candidate polygon: it writes each transform's
// image into one scratch buffer, finds that image's least rotation and
// compares it with the best so far by index, rereading the best's
// vertices from pg. The first transform wins ties, and only the winning
// polygon is built.
//
// Float caveat: translation subtracts the bounding-box minimum, so two
// translated copies of a shape canonicalize identically only when the
// subtraction is exact (always true for integer-nanometer and other
// dyadic coordinates, the common case for mask data). Inexact cases
// fall back to a harmless cache miss, never a wrong hit.
func Canonicalize(pg geom.Polygon) Canonical {
	reversed := !pg.IsCCW()
	bounds := pg.Bounds()
	scratch := make(geom.Polygon, len(pg))
	var best image
	bestStart := 0
	for t := Identity; t < numTransforms; t++ {
		im := newImage(pg, reversed, bounds, t)
		im.fill(scratch, 0)
		start := leastRotation(scratch)
		if t == Identity || lessThanImage(scratch, start, &best, bestStart) {
			best, bestStart = im, start
		}
	}
	out := make(geom.Polygon, len(pg))
	best.fill(out, bestStart)
	return Canonical{Poly: out, T: best.t, Off: best.off}
}

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

// at returns vertex j of the image.
func (im *image) at(j int) geom.Point {
	var v [1]geom.Point
	im.fill(v[:], j)
	return v[0]
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

// lessThanImage reports whether the rotation of cand starting at start
// precedes the rotation of im starting at imStart, vertex by vertex.
func lessThanImage(cand geom.Polygon, start int, im *image, imStart int) bool {
	n := len(cand)
	for k := 0; k < n; k++ {
		if c := cmpPoint(cand[wrap(start+k, n)], im.at(wrap(imStart+k, n))); c != 0 {
			return c < 0
		}
	}
	return false
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
			if cmpRotations(pg, i, start) < 0 {
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

// cmpRotations compares the rotations of pg starting at i and j.
func cmpRotations(pg geom.Polygon, i, j int) int {
	n := len(pg)
	for k := 0; k < n; k++ {
		if c := cmpPoint(pg[(i+k)%n], pg[(j+k)%n]); c != 0 {
			return c
		}
	}
	return 0
}

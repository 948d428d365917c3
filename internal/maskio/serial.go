package maskio

import (
	"encoding/binary"
	"fmt"
	"math"
	"unsafe"

	"maskfrac/internal/geom"
)

// This file holds the canonical polygon/shot serializations shared by
// the fracturing wire format (internal/fracserve) and the shape-cache
// key hash (internal/shapecache). Keeping both encodings next to the
// text formats makes maskio the single authority on how shapes leave
// process memory.

// AppendPolygon appends a canonical binary encoding of pg to buf: a
// little-endian uint32 vertex count followed by the IEEE-754 bits of
// each vertex's X and Y. The encoding is byte-stable for identical
// vertex slices, which is what content-addressed hashing needs. It is
// AppendPolygonHeader followed by AppendPoints, so a caller can also
// produce it a run of vertices at a time.
func AppendPolygon(buf []byte, pg geom.Polygon) []byte {
	return AppendPoints(AppendPolygonHeader(buf, len(pg)), pg)
}

// AppendPolygonHeader appends the vertex count that starts the
// AppendPolygon encoding of an n-vertex polygon.
func AppendPolygonHeader(buf []byte, n int) []byte {
	return binary.LittleEndian.AppendUint32(buf, uint32(n))
}

// AppendPoints appends the IEEE-754 bits of each point's X and Y: the
// vertex part of the AppendPolygon encoding.
func AppendPoints(buf []byte, pts []geom.Point) []byte {
	for _, p := range pts {
		buf = AppendFloat64(buf, p.X)
		buf = AppendFloat64(buf, p.Y)
	}
	return buf
}

// AppendFloat64 appends the little-endian IEEE-754 bits of v to buf.
func AppendFloat64(buf []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
}

// The wire forms are views. A conversion compiles only between
// identical underlying types, so the two below pin geom.Point to two
// float64s and geom.Rect to four, in this order and nothing else: the
// layouts of [2]float64 and [4]float64, with the same size, alignment
// and field offsets. A slice of one is then read as a slice of the
// other in place, under the unsafe package's rule for converting
// between types of equivalent memory layout.
var (
	_ = geom.Point(struct{ X, Y float64 }{})
	_ = geom.Rect(struct{ X0, Y0, X1, Y1 float64 }{})
)

// PolygonWire returns pg's JSON wire form, a [[x,y], ...] vertex list.
// It is a view, not a copy: the result aliases pg's vertices, so a
// write through either shows in the other.
func PolygonWire(pg geom.Polygon) [][2]float64 {
	return unsafe.Slice((*[2]float64)(unsafe.Pointer(unsafe.SliceData(pg))), len(pg))
}

// PolygonFromWire validates a JSON wire vertex list and returns it as
// a polygon. The polygon is a view of w, not a copy: it aliases w's
// vertices.
func PolygonFromWire(w [][2]float64) (geom.Polygon, error) {
	pg := geom.Polygon(unsafe.Slice((*geom.Point)(unsafe.Pointer(unsafe.SliceData(w))), len(w)))
	if err := pg.Validate(); err != nil {
		return nil, err
	}
	return pg, nil
}

// ShotsWire returns a shot list's JSON wire form, a [[x0,y0,x1,y1], ...]
// rectangle list. It is a view of shots, not a copy.
func ShotsWire(shots []geom.Rect) [][4]float64 {
	return unsafe.Slice((*[4]float64)(unsafe.Pointer(unsafe.SliceData(shots))), len(shots))
}

// ShotsFromWire returns a JSON wire rectangle list as shots, rejecting
// invalid or empty rectangles. The shots are a view of w, not a copy.
func ShotsFromWire(w [][4]float64) ([]geom.Rect, error) {
	shots := unsafe.Slice((*geom.Rect)(unsafe.Pointer(unsafe.SliceData(w))), len(w))
	for i, r := range shots {
		if !r.Valid() || r.Empty() {
			return nil, fmt.Errorf("maskio: shot %d is invalid: %v", i, r)
		}
	}
	return shots, nil
}

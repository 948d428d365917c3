package maskio

import (
	"encoding/binary"
	"fmt"
	"math"

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

// PolygonWire converts a polygon to its JSON wire form, a [[x,y], ...]
// vertex list.
func PolygonWire(pg geom.Polygon) [][2]float64 {
	out := make([][2]float64, len(pg))
	for i, p := range pg {
		out[i] = [2]float64{p.X, p.Y}
	}
	return out
}

// PolygonFromWire converts a JSON wire vertex list back to a polygon
// and validates it.
func PolygonFromWire(w [][2]float64) (geom.Polygon, error) {
	pg := make(geom.Polygon, len(w))
	for i, v := range w {
		pg[i] = geom.Pt(v[0], v[1])
	}
	if err := pg.Validate(); err != nil {
		return nil, err
	}
	return pg, nil
}

// ShotsWire converts a shot list to its JSON wire form, a
// [[x0,y0,x1,y1], ...] rectangle list.
func ShotsWire(shots []geom.Rect) [][4]float64 {
	out := make([][4]float64, len(shots))
	for i, s := range shots {
		out[i] = [4]float64{s.X0, s.Y0, s.X1, s.Y1}
	}
	return out
}

// ShotsFromWire converts a JSON wire rectangle list back to shots,
// rejecting invalid or empty rectangles.
func ShotsFromWire(w [][4]float64) ([]geom.Rect, error) {
	shots := make([]geom.Rect, len(w))
	for i, v := range w {
		r := geom.Rect{X0: v[0], Y0: v[1], X1: v[2], Y1: v[3]}
		if !r.Valid() || r.Empty() {
			return nil, fmt.Errorf("maskio: shot %d is invalid: %v", i, r)
		}
		shots[i] = r
	}
	return shots, nil
}

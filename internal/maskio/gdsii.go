// GDSII stream format support: the industry-standard binary layout
// interchange format mask shapes actually arrive in. This file holds
// the record-level codec (record framing, strings, XY boundaries and
// 8-byte reals) that WriteGDSLib and ReadGDSLib in gdslib.go build on.
// Coordinates are written in database units of 1 picometer (1000 dbu
// per nm) so the sub-nanometer vertices produced by contour extraction
// survive the round trip.
package maskio

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"maskfrac/internal/geom"
)

// GDSII record types used here.
const (
	recHeader   = 0x00
	recBgnLib   = 0x01
	recLibName  = 0x02
	recUnits    = 0x03
	recEndLib   = 0x04
	recBgnStr   = 0x05
	recStrName  = 0x06
	recEndStr   = 0x07
	recBoundary = 0x08
	recLayer    = 0x0D
	recDatatype = 0x0E
	recXY       = 0x10
	recEndEl    = 0x11
)

// GDSII data types.
const (
	dtNone   = 0x00
	dtInt16  = 0x02
	dtInt32  = 0x03
	dtReal8  = 0x05
	dtString = 0x06
)

// maxBoundaryVertices is the most vertices a boundary can have: one
// record holds its XY payload, closing vertex included.
const maxBoundaryVertices = (math.MaxUint16-4)/8 - 1

// dbuPerNm is the database resolution: 1000 database units per
// nanometer (1 dbu = 1 pm).
const dbuPerNm = 1000

// gdsEncoder emits length-prefixed records, capturing the first error.
type gdsEncoder struct {
	w   io.Writer
	err error
}

// record writes one GDSII record.
func (e *gdsEncoder) record(rec, dt byte, data []byte) {
	if e.err != nil {
		return
	}
	length := 4 + len(data)
	if length > math.MaxUint16 {
		e.err = fmt.Errorf("maskio: gds record too long (%d bytes)", length)
		return
	}
	hdr := []byte{byte(length >> 8), byte(length), rec, dt}
	if _, err := e.w.Write(hdr); err != nil {
		e.err = err
		return
	}
	if _, err := e.w.Write(data); err != nil {
		e.err = err
	}
}

// readRecord reads one record header + payload.
func readRecord(r io.Reader) (rec byte, data []byte, err error) {
	var hdr [4]byte
	if _, err = io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	length := int(hdr[0])<<8 | int(hdr[1])
	if length < 4 {
		return 0, nil, fmt.Errorf("maskio: gds record length %d", length)
	}
	data = make([]byte, length-4)
	if _, err = io.ReadFull(r, data); err != nil {
		return 0, nil, fmt.Errorf("maskio: gds truncated record: %w", err)
	}
	return hdr[2], data, nil
}

// i16bytes encodes one big-endian int16.
func i16bytes(v int16) []byte {
	return []byte{byte(uint16(v) >> 8), byte(v)}
}

// strbytes encodes an even-padded ASCII string.
func strbytes(s string) []byte {
	b := []byte(s)
	if len(b)%2 == 1 {
		b = append(b, 0)
	}
	return b
}

// cstring strips the padding NULs. A writer pads to an even length
// with one, but a name read with more would come back from strbytes
// with fewer.
func cstring(b []byte) string {
	return string(bytes.TrimRight(b, "\x00"))
}

// xybytes encodes a polygon as closed int32 dbu coordinate pairs.
func xybytes(pg geom.Polygon) []byte {
	out := make([]byte, 0, 8*(len(pg)+1))
	put := func(p geom.Point) {
		x := int32(math.Round(p.X * dbuPerNm))
		y := int32(math.Round(p.Y * dbuPerNm))
		var buf [8]byte
		binary.BigEndian.PutUint32(buf[0:4], uint32(x))
		binary.BigEndian.PutUint32(buf[4:8], uint32(y))
		out = append(out, buf[:]...)
	}
	for _, p := range pg {
		put(p)
	}
	if len(pg) > 0 {
		put(pg[0]) // GDSII boundaries repeat the first vertex
	}
	return out
}

// xyparse decodes closed coordinate pairs back into a polygon.
func xyparse(data []byte) (geom.Polygon, error) {
	if len(data)%8 != 0 || len(data) < 32 {
		return nil, fmt.Errorf("maskio: gds XY payload of %d bytes", len(data))
	}
	n := len(data) / 8
	pg := make(geom.Polygon, 0, n-1)
	for i := 0; i < n; i++ {
		x := int32(binary.BigEndian.Uint32(data[8*i : 8*i+4]))
		y := int32(binary.BigEndian.Uint32(data[8*i+4 : 8*i+8]))
		pg = append(pg, geom.Pt(float64(x)/dbuPerNm, float64(y)/dbuPerNm))
	}
	// drop the repeated closing vertex
	if pg[0] == pg[len(pg)-1] {
		pg = pg[:len(pg)-1]
	}
	// xybytes writes the closing vertex back, which one record must hold
	if len(pg) > maxBoundaryVertices {
		return nil, fmt.Errorf("maskio: gds boundary of %d vertices, more than %d", len(pg), maxBoundaryVertices)
	}
	if err := pg.Validate(); err != nil {
		return nil, fmt.Errorf("maskio: gds boundary: %w", err)
	}
	return pg, nil
}

// real8bytes encodes an IEEE float64 as a GDSII 8-byte real
// (excess-64 base-16 exponent, 56-bit mantissa).
func real8bytes(v float64) []byte {
	var out [8]byte
	if v == 0 {
		return out[:]
	}
	sign := byte(0)
	if v < 0 {
		sign = 0x80
		v = -v
	}
	// normalize: v = mantissa * 16^exp with mantissa in [1/16, 1)
	exp := 0
	for v >= 1 {
		v /= 16
		exp++
	}
	for v < 1.0/16 {
		v *= 16
		exp--
	}
	out[0] = sign | byte(exp+64)
	mant := v
	for i := 1; i < 8; i++ {
		mant *= 256
		d := math.Floor(mant)
		out[i] = byte(d)
		mant -= d
	}
	return out[:]
}

// real8parse decodes a GDSII 8-byte real.
func real8parse(b []byte) float64 {
	if len(b) != 8 {
		return 0
	}
	sign := 1.0
	if b[0]&0x80 != 0 {
		sign = -1
	}
	exp := int(b[0]&0x7f) - 64
	mant := 0.0
	scale := 1.0
	for i := 1; i < 8; i++ {
		scale /= 256
		mant += float64(b[i]) * scale
	}
	return sign * mant * math.Pow(16, float64(exp))
}

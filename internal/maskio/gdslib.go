// GDSII stream encoding of layout hierarchies: structures containing
// BOUNDARY elements plus SREF/AREF cell references with STRANS/ANGLE
// placement transforms. Built on the record-level encoder/decoder in
// gdsii.go; WriteGDSLib and ReadGDSLib are the package's one GDSII
// writer and reader. A flat shape list is a library of one cell per
// shape.
package maskio

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"maskfrac/internal/geom"
)

// Hierarchy record types (in addition to the boundary set in
// gdsii.go).
const (
	recSRef   = 0x0A
	recARef   = 0x0B
	recSName  = 0x12
	recColRow = 0x13
	recSTrans = 0x1A
	recMag    = 0x1B
	recAngle  = 0x1C
)

// stransReflect is the STRANS bit requesting reflection across the
// x-axis before rotation (bit 15 of the flag word).
const stransReflect = 0x8000

// WriteGDSLib writes a layout hierarchy as a GDSII stream library: one
// structure per cell, each holding its BOUNDARY elements followed by its
// SREF/AREF references. The library must validate.
func WriteGDSLib(w io.Writer, lib *Library) error {
	if err := lib.Validate(); err != nil {
		return err
	}
	bw := bufio.NewWriter(w)
	enc := gdsEncoder{w: bw}
	enc.record(recHeader, dtInt16, i16bytes(600))
	enc.record(recBgnLib, dtInt16, make([]byte, 24))
	enc.record(recLibName, dtString, strbytes(lib.Name))
	// UNITS: the dbu in user units (µm), then the dbu in meters (1 pm)
	units := append(real8bytes(1.0/(1000*dbuPerNm)), real8bytes(1e-12)...)
	enc.record(recUnits, dtReal8, units)
	for _, c := range lib.Cells {
		enc.record(recBgnStr, dtInt16, make([]byte, 24))
		enc.record(recStrName, dtString, strbytes(c.Name))
		for _, b := range c.Boundaries {
			enc.record(recBoundary, dtNone, nil)
			enc.record(recLayer, dtInt16, i16bytes(0))
			enc.record(recDatatype, dtInt16, i16bytes(0))
			enc.record(recXY, dtInt32, xybytes(b))
			enc.record(recEndEl, dtNone, nil)
		}
		for _, r := range c.Refs {
			writeRef(&enc, r)
		}
		enc.record(recEndStr, dtNone, nil)
	}
	enc.record(recEndLib, dtNone, nil)
	if enc.err != nil {
		return enc.err
	}
	return bw.Flush()
}

// writeRef emits one SREF or AREF element.
func writeRef(enc *gdsEncoder, r Ref) {
	aref := r.Cols > 1 || r.Rows > 1
	if aref {
		enc.record(recARef, dtNone, nil)
	} else {
		enc.record(recSRef, dtNone, nil)
	}
	enc.record(recSName, dtString, strbytes(r.Cell))
	reflect, angle := r.Orient.gdsSpec()
	if reflect || angle != 0 {
		flags := uint16(0)
		if reflect {
			flags |= stransReflect
		}
		enc.record(recSTrans, dtInt16, i16bytes(int16(flags)))
		if angle != 0 {
			enc.record(recAngle, dtReal8, real8bytes(angle))
		}
	}
	if aref {
		enc.record(recColRow, dtInt16, append(i16bytes(int16(r.Cols)), i16bytes(int16(r.Rows))...))
		// AREF XY: origin, origin + Cols·ColStep, origin + Rows·RowStep
		pts := []geom.Point{
			r.Origin,
			r.Origin.Add(r.ColStep.Scale(float64(r.Cols))),
			r.Origin.Add(r.RowStep.Scale(float64(r.Rows))),
		}
		enc.record(recXY, dtInt32, ptbytes(pts))
	} else {
		enc.record(recXY, dtInt32, ptbytes([]geom.Point{r.Origin}))
	}
	enc.record(recEndEl, dtNone, nil)
}

// ptbytes encodes points as int32 dbu coordinate pairs (no implicit
// closing vertex, unlike xybytes).
func ptbytes(pts []geom.Point) []byte {
	out := make([]byte, 0, 8*len(pts))
	for _, p := range pts {
		var buf [8]byte
		binary.BigEndian.PutUint32(buf[0:4], uint32(int32(roundDBU(p.X))))
		binary.BigEndian.PutUint32(buf[4:8], uint32(int32(roundDBU(p.Y))))
		out = append(out, buf[:]...)
	}
	return out
}

func roundDBU(v float64) int64 {
	if v >= 0 {
		return int64(v*dbuPerNm + 0.5)
	}
	return -int64(-v*dbuPerNm + 0.5)
}

// ptparse decodes int32 dbu coordinate pairs.
func ptparse(data []byte) ([]geom.Point, error) {
	if len(data)%8 != 0 {
		return nil, fmt.Errorf("maskio: gds XY payload of %d bytes", len(data))
	}
	pts := make([]geom.Point, len(data)/8)
	for i := range pts {
		x := int32(binary.BigEndian.Uint32(data[8*i : 8*i+4]))
		y := int32(binary.BigEndian.Uint32(data[8*i+4 : 8*i+8]))
		pts[i] = geom.Pt(float64(x)/dbuPerNm, float64(y)/dbuPerNm)
	}
	return pts, nil
}

// refState accumulates one SREF/AREF element while its records stream
// by.
type refState struct {
	aref    bool
	cell    string
	reflect bool
	angle   float64
	mag     float64
	cols    int
	rows    int
	pts     []geom.Point
}

// ReadGDSLib parses a GDSII stream into a layout hierarchy, including
// SREF/AREF references with axis-aligned transforms. Magnification must
// be 1 and angles multiples of 90°; PATH and TEXT elements are skipped.
// The returned library is validated.
func ReadGDSLib(r io.Reader) (*Library, error) {
	br := bufio.NewReader(r)
	lib := &Library{}
	var cur *Cell
	var ref *refState
	inBoundary := false
	for {
		rec, data, err := readRecord(br)
		if err == io.EOF {
			return nil, fmt.Errorf("maskio: gds: missing ENDLIB")
		}
		if err != nil {
			return nil, err
		}
		switch rec {
		case recEndLib:
			if err := lib.Validate(); err != nil {
				return nil, err
			}
			return lib, nil
		case recLibName:
			lib.Name = cstring(data)
		case recBgnStr:
			cur = &Cell{}
		case recStrName:
			if cur != nil {
				cur.Name = cstring(data)
			}
		case recEndStr:
			if cur != nil {
				lib.Cells = append(lib.Cells, cur)
				cur = nil
			}
		case recBoundary:
			inBoundary = true
		case recSRef:
			ref = &refState{mag: 1}
		case recARef:
			ref = &refState{aref: true, mag: 1}
		case recSName:
			if ref != nil {
				ref.cell = cstring(data)
			}
		case recSTrans:
			if ref != nil && len(data) >= 2 {
				flags := uint16(data[0])<<8 | uint16(data[1])
				ref.reflect = flags&stransReflect != 0
			}
		case recAngle:
			if ref != nil {
				ref.angle = real8parse(data)
			}
		case recMag:
			if ref != nil {
				ref.mag = real8parse(data)
			}
		case recColRow:
			if ref != nil && len(data) >= 4 {
				ref.cols = int(int16(uint16(data[0])<<8 | uint16(data[1])))
				ref.rows = int(int16(uint16(data[2])<<8 | uint16(data[3])))
			}
		case recXY:
			switch {
			case inBoundary:
				if cur == nil {
					return nil, fmt.Errorf("maskio: gds boundary outside structure")
				}
				pg, err := xyparse(data)
				if err != nil {
					return nil, err
				}
				cur.Boundaries = append(cur.Boundaries, pg)
			case ref != nil:
				pts, err := ptparse(data)
				if err != nil {
					return nil, err
				}
				ref.pts = pts
			}
		case recEndEl:
			if ref != nil {
				out, err := ref.finish()
				if err != nil {
					return nil, err
				}
				if cur == nil {
					return nil, fmt.Errorf("maskio: gds reference outside structure")
				}
				cur.Refs = append(cur.Refs, out)
				ref = nil
			}
			inBoundary = false
		}
	}
}

// finish converts the accumulated records into a Ref.
func (rs *refState) finish() (Ref, error) {
	if rs.cell == "" {
		return Ref{}, fmt.Errorf("maskio: gds reference without SNAME")
	}
	if rs.mag != 1 {
		return Ref{}, fmt.Errorf("maskio: gds ref to %q: unsupported magnification %g", rs.cell, rs.mag)
	}
	o, err := orientFromGDS(rs.reflect, rs.angle)
	if err != nil {
		return Ref{}, fmt.Errorf("maskio: gds ref to %q: %w", rs.cell, err)
	}
	out := Ref{Cell: rs.cell, Orient: o, Cols: 1, Rows: 1}
	if !rs.aref {
		if len(rs.pts) != 1 {
			return Ref{}, fmt.Errorf("maskio: gds SREF to %q: %d XY points", rs.cell, len(rs.pts))
		}
		out.Origin = rs.pts[0]
		return out, nil
	}
	if rs.cols < 1 || rs.rows < 1 {
		return Ref{}, fmt.Errorf("maskio: gds AREF to %q: %dx%d array", rs.cell, rs.cols, rs.rows)
	}
	if len(rs.pts) != 3 {
		return Ref{}, fmt.Errorf("maskio: gds AREF to %q: %d XY points", rs.cell, len(rs.pts))
	}
	out.Origin = rs.pts[0]
	if rs.cols == 1 && rs.rows == 1 {
		// one placement, an SREF: its step vectors place nothing
		return out, nil
	}
	out.Cols, out.Rows = rs.cols, rs.rows
	out.ColStep = rs.pts[1].Sub(out.Origin).Scale(1 / float64(rs.cols))
	out.RowStep = rs.pts[2].Sub(out.Origin).Scale(1 / float64(rs.rows))
	return out, nil
}

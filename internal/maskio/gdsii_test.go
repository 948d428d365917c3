package maskio

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"maskfrac/internal/geom"
)

// shapeLib returns a library holding one cell per shape, named after
// the shape, with the shape as the cell's only boundary.
func shapeLib(name string, shapes []NamedShape) *Library {
	lib := &Library{Name: name}
	for _, s := range shapes {
		lib.Cells = append(lib.Cells, &Cell{Name: s.Name, Boundaries: []geom.Polygon{s.Polygon}})
	}
	return lib
}

// roundTrip writes shapes as a one-cell-per-shape library and reads
// the stream back.
func roundTrip(name string, shapes []NamedShape) (*Library, error) {
	var buf bytes.Buffer
	if err := WriteGDSLib(&buf, shapeLib(name, shapes)); err != nil {
		return nil, err
	}
	return ReadGDSLib(&buf)
}

func TestGDSRoundTrip(t *testing.T) {
	in := []NamedShape{
		{Name: "clip1", Polygon: geom.Polygon{geom.Pt(0, 0), geom.Pt(100, 0), geom.Pt(100, 50), geom.Pt(0, 50)}},
		{Name: "clip2", Polygon: geom.Polygon{geom.Pt(-5, -5), geom.Pt(20.25, -5), geom.Pt(10.5, 30.125)}},
	}
	out, err := roundTrip("testlib", in)
	if err != nil {
		t.Fatal(err)
	}
	if out.Name != "testlib" {
		t.Errorf("library name = %q", out.Name)
	}
	if len(out.Cells) != 2 {
		t.Fatalf("cells = %d", len(out.Cells))
	}
	for i := range in {
		c := out.Cells[i]
		if c.Name != in[i].Name {
			t.Errorf("name %q != %q", c.Name, in[i].Name)
		}
		if len(c.Boundaries) != 1 || len(c.Refs) != 0 {
			t.Fatalf("cell %d: %d boundaries, %d refs", i, len(c.Boundaries), len(c.Refs))
		}
		if len(c.Boundaries[0]) != len(in[i].Polygon) {
			t.Fatalf("shape %d: %d vertices, want %d", i, len(c.Boundaries[0]), len(in[i].Polygon))
		}
		for j, p := range in[i].Polygon {
			got := c.Boundaries[0][j]
			// 1 pm database resolution
			if math.Abs(got.X-p.X) > 1e-3 || math.Abs(got.Y-p.Y) > 1e-3 {
				t.Errorf("shape %d vertex %d: %v != %v", i, j, got, p)
			}
		}
	}
}

func TestGDSHeaderStructure(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteGDSLib(&buf, &Library{Name: "lib"}); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	// first record: HEADER, int16 data, version 600
	if b[2] != recHeader || b[3] != dtInt16 {
		t.Errorf("first record = %x %x", b[2], b[3])
	}
	if v := int(b[4])<<8 | int(b[5]); v != 600 {
		t.Errorf("version = %d", v)
	}
	// stream must end with ENDLIB
	if b[len(b)-2] != recEndLib {
		t.Errorf("last record = %x", b[len(b)-2])
	}
}

func TestGDSErrors(t *testing.T) {
	// truncated stream
	var buf bytes.Buffer
	if err := WriteGDSLib(&buf, shapeLib("lib", []NamedShape{
		{Name: "s", Polygon: geom.Polygon{geom.Pt(0, 0), geom.Pt(4, 0), geom.Pt(4, 4)}},
	})); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-6]
	if _, err := ReadGDSLib(bytes.NewReader(trunc)); err == nil {
		t.Error("truncated stream accepted")
	}
	// garbage header
	if _, err := ReadGDSLib(bytes.NewReader([]byte{0, 1, 2})); err == nil {
		t.Error("garbage accepted")
	}
}

// TestGDSBoundaryRecordLimit checks that a boundary is read only when
// it can be written back: closed, its XY record holds at most
// maxBoundaryVertices vertices, and an unclosed record one vertex
// longer is refused rather than read into a library WriteGDSLib cannot
// write.
func TestGDSBoundaryRecordLimit(t *testing.T) {
	k := (maxBoundaryVertices - 2) / 2
	stair := geom.Polygon{geom.Pt(0, 0), geom.Pt(float64(k), 0)}
	for i := 1; i <= k; i++ {
		stair = append(stair, geom.Pt(float64(k-i+1), float64(i)), geom.Pt(float64(k-i), float64(i)))
	}
	out, err := roundTrip("lib", []NamedShape{{Name: "s", Polygon: stair}})
	if err != nil {
		t.Fatalf("%d-vertex boundary: %v", len(stair), err)
	}
	if n := len(out.Cells[0].Boundaries[0]); n != maxBoundaryVertices {
		t.Fatalf("read %d vertices, want %d", n, maxBoundaryVertices)
	}

	var buf bytes.Buffer
	enc := gdsEncoder{w: &buf}
	enc.record(recBgnStr, dtInt16, make([]byte, 24))
	enc.record(recStrName, dtString, strbytes("s"))
	enc.record(recBoundary, dtNone, nil)
	enc.record(recXY, dtInt32, ptbytes(append(geom.Polygon{stair[0], geom.Pt(0.5, 0)}, stair[1:]...)))
	enc.record(recEndEl, dtNone, nil)
	enc.record(recEndStr, dtNone, nil)
	enc.record(recEndLib, dtNone, nil)
	if enc.err != nil {
		t.Fatal(enc.err)
	}
	if _, err := ReadGDSLib(&buf); err == nil || !strings.Contains(err.Error(), "more than") {
		t.Errorf("unclosed boundary of %d vertices: err %v", maxBoundaryVertices+1, err)
	}
}

func TestReal8RoundTrip(t *testing.T) {
	for _, v := range []float64{0, 1, -1, 0.001, 1e-12, 6.25e-9, 123456.789, -3.25e-5} {
		b := real8bytes(v)
		got := real8parse(b)
		if v == 0 {
			if got != 0 {
				t.Errorf("zero decodes to %v", got)
			}
			continue
		}
		if math.Abs(got-v)/math.Abs(v) > 1e-12 {
			t.Errorf("real8(%v) = %v", v, got)
		}
	}
}

func TestReal8Quick(t *testing.T) {
	f := func(mant int32, scale uint8) bool {
		v := float64(mant) * math.Pow(10, float64(int(scale%24)-12))
		got := real8parse(real8bytes(v))
		if v == 0 {
			return got == 0
		}
		return math.Abs(got-v)/math.Abs(v) < 1e-10
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestGDSQuickPolygonRoundTrip(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) < 6 {
			return true
		}
		pg := make(geom.Polygon, 0, len(raw)/2)
		for i := 0; i+1 < len(raw) && len(pg) < 64; i += 2 {
			pg = append(pg, geom.Pt(float64(raw[i])/4, float64(raw[i+1])/4))
		}
		if pg.Validate() != nil {
			return true // skip degenerate random polygons
		}
		out, err := roundTrip("q", []NamedShape{{Name: "s", Polygon: pg}})
		if err != nil || len(out.Cells) != 1 || len(out.Cells[0].Boundaries) != 1 {
			return false
		}
		back := out.Cells[0].Boundaries[0]
		if len(back) != len(pg) {
			return false
		}
		for i, p := range pg {
			got := back[i]
			if math.Abs(got.X-p.X) > 1e-3 || math.Abs(got.Y-p.Y) > 1e-3 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

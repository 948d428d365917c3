package maskio

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"

	"maskfrac/internal/geom"
)

func TestShapesRoundTrip(t *testing.T) {
	in := []NamedShape{
		{Name: "square", Polygon: geom.Polygon{geom.Pt(0, 0), geom.Pt(10, 0), geom.Pt(10, 10), geom.Pt(0, 10)}},
		{Name: "tri", Polygon: geom.Polygon{geom.Pt(0, 0), geom.Pt(5, 0), geom.Pt(2.5, 4.5)}},
	}
	var buf bytes.Buffer
	if err := WriteShapes(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadShapes(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 || out[0].Name != "square" || out[1].Name != "tri" {
		t.Fatalf("round trip = %+v", out)
	}
	for i := range in {
		if len(out[i].Polygon) != len(in[i].Polygon) {
			t.Fatalf("shape %d vertex count changed", i)
		}
		for j := range in[i].Polygon {
			if out[i].Polygon[j] != in[i].Polygon[j] {
				t.Errorf("shape %d vertex %d: %v != %v", i, j, out[i].Polygon[j], in[i].Polygon[j])
			}
		}
	}
}

func TestLoadShape(t *testing.T) {
	path := filepath.Join(t.TempDir(), "two.msk")
	in := []NamedShape{
		{Name: "square", Polygon: geom.Polygon{geom.Pt(0, 0), geom.Pt(10, 0), geom.Pt(10, 10), geom.Pt(0, 10)}},
		{Name: "tri", Polygon: geom.Polygon{geom.Pt(0, 0), geom.Pt(5, 0), geom.Pt(2.5, 4.5)}},
	}
	var buf bytes.Buffer
	if err := WriteShapes(&buf, in); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]string{"": "square", "tri": "tri"} {
		s, err := LoadShape(path, name)
		if err != nil || s.Name != want {
			t.Errorf("LoadShape(%q) = %q, %v; want %q", name, s.Name, err, want)
		}
	}
	if _, err := LoadShape(path, "hex"); err == nil || !strings.Contains(err.Error(), path) {
		t.Errorf("missing shape: err = %v, want one naming %s", err, path)
	}
}

func TestReadShapesComments(t *testing.T) {
	src := `
# a comment
shape s1
v 0 0
v 4 0

v 4 4
end
`
	shapes, err := ReadShapes(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if len(shapes) != 1 || len(shapes[0].Polygon) != 3 {
		t.Fatalf("parsed %+v", shapes)
	}
}

func TestReadShapesErrors(t *testing.T) {
	cases := []string{
		"v 0 0\n",                      // vertex outside shape
		"shape a\nshape b\n",           // nested
		"end\n",                        // stray end
		"shape a\nv 0\nend\n",          // bad vertex arity
		"shape a\nv x y\nend\n",        // bad numbers
		"shape a\nv 0 0\nv 1 1\nend\n", // too few vertices
		"shape a\nv 0 0\n",             // unterminated
		"bogus directive\n",            // unknown directive
		"shape a\nv 0 0\nv 70 0\nv 70 NaN\nv 0 70\nend\n",  // non-finite vertex
		"shape a\nv 0 0\nv +Inf 0\nv 70 70\nv 0 70\nend\n", // non-finite vertex
	}
	for _, src := range cases {
		if _, err := ReadShapes(strings.NewReader(src)); err == nil {
			t.Errorf("accepted bad input %q", src)
		}
	}
}

func TestShotsRoundTrip(t *testing.T) {
	in := []geom.Rect{
		{X0: 0, Y0: 0, X1: 10, Y1: 20},
		{X0: -5.5, Y0: 2.25, X1: 4.5, Y1: 12.75},
	}
	var buf bytes.Buffer
	if err := WriteShots(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadShots(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("count %d != %d", len(out), len(in))
	}
	for i := range in {
		if out[i] != in[i] {
			t.Errorf("shot %d: %v != %v", i, out[i], in[i])
		}
	}
}

func TestReadShotsErrors(t *testing.T) {
	cases := []string{
		"1 2 3\n",   // arity
		"1 2 3 x\n", // bad number
		"5 5 1 1\n", // inverted
		"1 1 1 5\n", // empty width
	}
	for _, src := range cases {
		if _, err := ReadShots(strings.NewReader(src)); err == nil {
			t.Errorf("accepted bad shot %q", src)
		}
	}
	// comments and blanks are fine
	shots, err := ReadShots(strings.NewReader("# c\n\n1 2 3 4\n"))
	if err != nil || len(shots) != 1 {
		t.Errorf("comment handling: %v %v", shots, err)
	}
}

func TestShotsQuickRoundTrip(t *testing.T) {
	f := func(x0, y0 int16, w, h uint8) bool {
		if w == 0 || h == 0 {
			return true
		}
		r := geom.Rect{X0: float64(x0), Y0: float64(y0), X1: float64(x0) + float64(w), Y1: float64(y0) + float64(h)}
		var buf bytes.Buffer
		if err := WriteShots(&buf, []geom.Rect{r}); err != nil {
			return false
		}
		out, err := ReadShots(&buf)
		return err == nil && len(out) == 1 && out[0] == r
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

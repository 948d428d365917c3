package maskio

import (
	"bytes"
	"testing"

	"maskfrac/internal/geom"
)

func TestAppendPolygonStable(t *testing.T) {
	pg := geom.Polygon{{X: 0, Y: 0}, {X: 10, Y: 0}, {X: 10, Y: 7.5}, {X: 0, Y: 7.5}}
	a := AppendPolygon(nil, pg)
	b := AppendPolygon(nil, pg.Clone())
	if !bytes.Equal(a, b) {
		t.Error("identical polygons encode differently")
	}
	// 4-byte count + 4 vertices * 16 bytes
	if len(a) != 4+4*16 {
		t.Errorf("encoding length = %d", len(a))
	}
	c := AppendPolygon(nil, pg.Translate(geom.Pt(1, 0)))
	if bytes.Equal(a, c) {
		t.Error("distinct polygons encode identically")
	}
}

func TestPolygonWireRoundTrip(t *testing.T) {
	pg := geom.Polygon{{X: 0, Y: 0}, {X: 100, Y: 0}, {X: 100, Y: 60}, {X: 0, Y: 60}}
	back, err := PolygonFromWire(PolygonWire(pg))
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(pg) {
		t.Fatalf("round trip lost vertices: %d vs %d", len(back), len(pg))
	}
	for i := range pg {
		if back[i] != pg[i] {
			t.Errorf("vertex %d = %v, want %v", i, back[i], pg[i])
		}
	}
}

func TestPolygonFromWireRejectsDegenerate(t *testing.T) {
	if _, err := PolygonFromWire([][2]float64{{0, 0}, {1, 1}}); err == nil {
		t.Error("2-vertex polygon accepted")
	}
	nan := [][2]float64{{0, 0}, {1, 0}, {0, badFloat()}}
	if _, err := PolygonFromWire(nan); err == nil {
		t.Error("NaN vertex accepted")
	}
}

func badFloat() float64 {
	z := 0.0
	return z / z
}

func TestShotsWireRoundTrip(t *testing.T) {
	shots := []geom.Rect{{X0: 0, Y0: 0, X1: 10, Y1: 5}, {X0: -3, Y0: 2, X1: 4, Y1: 9}}
	back, err := ShotsFromWire(ShotsWire(shots))
	if err != nil {
		t.Fatal(err)
	}
	for i := range shots {
		if back[i] != shots[i] {
			t.Errorf("shot %d = %v, want %v", i, back[i], shots[i])
		}
	}
	if _, err := ShotsFromWire([][4]float64{{5, 0, 1, 1}}); err == nil {
		t.Error("inverted shot accepted")
	}
	if _, err := ShotsFromWire([][4]float64{{0, 0, 0, 5}}); err == nil {
		t.Error("empty shot accepted")
	}
}

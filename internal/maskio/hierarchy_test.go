package maskio

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"maskfrac/internal/geom"
)

func unitRect(w, h float64) geom.Polygon {
	return geom.Polygon{geom.Pt(0, 0), geom.Pt(w, 0), geom.Pt(w, h), geom.Pt(0, h)}
}

func lShape() geom.Polygon {
	return geom.Polygon{
		geom.Pt(0, 0), geom.Pt(60, 0), geom.Pt(60, 20),
		geom.Pt(20, 20), geom.Pt(20, 80), geom.Pt(0, 80),
	}
}

// deepLib builds a 4-level hierarchy: leaf boundaries, a cell placing
// the leaf with rotation and mirror, an AREF array of that cell, and a
// top cell placing two arrays (one rotated).
func deepLib() *Library {
	return &Library{
		Name: "deep",
		Cells: []*Cell{
			{Name: "leaf", Boundaries: []geom.Polygon{unitRect(30, 10), lShape()}},
			{Name: "pair", Refs: []Ref{
				{Cell: "leaf", Orient: OrientIdentity, Origin: geom.Pt(0, 0), Cols: 1, Rows: 1},
				{Cell: "leaf", Orient: OrientRot90, Origin: geom.Pt(200, 0), Cols: 1, Rows: 1},
				{Cell: "leaf", Orient: OrientMirrorY, Origin: geom.Pt(0, 200), Cols: 1, Rows: 1},
			}},
			{Name: "block", Refs: []Ref{
				{Cell: "pair", Orient: OrientIdentity, Origin: geom.Pt(0, 0),
					Cols: 3, Rows: 2, ColStep: geom.Pt(400, 0), RowStep: geom.Pt(0, 400)},
			}},
			{Name: "top", Refs: []Ref{
				{Cell: "block", Orient: OrientIdentity, Origin: geom.Pt(0, 0), Cols: 1, Rows: 1},
				{Cell: "block", Orient: OrientRot180, Origin: geom.Pt(5000, 5000), Cols: 1, Rows: 1},
				{Cell: "leaf", Orient: OrientTranspose, Origin: geom.Pt(-300, -300), Cols: 1, Rows: 1},
			}},
		},
	}
}

func TestOrientGroupLaws(t *testing.T) {
	pts := []geom.Point{geom.Pt(3, 7), geom.Pt(-2, 5), geom.Pt(0, -4)}
	for a := Orient(0); a < numOrients; a++ {
		// identity composition
		if a.Compose(OrientIdentity) != a || OrientIdentity.Compose(a) != a {
			t.Errorf("identity law fails for %d", a)
		}
		// compose agrees with pointwise application
		for b := Orient(0); b < numOrients; b++ {
			c := a.Compose(b)
			for _, p := range pts {
				if got, want := c.Apply(p), a.Apply(b.Apply(p)); got != want {
					t.Fatalf("compose(%d,%d): %v != %v at %v", a, b, got, want, p)
				}
			}
		}
		// every element has an inverse in the group
		inv := false
		for b := Orient(0); b < numOrients; b++ {
			if a.Compose(b) == OrientIdentity {
				inv = true
			}
		}
		if !inv {
			t.Errorf("no inverse for %d", a)
		}
	}
}

func TestOrientGDSRoundTrip(t *testing.T) {
	for o := Orient(0); o < numOrients; o++ {
		refl, angle := o.gdsSpec()
		back, err := orientFromGDS(refl, angle)
		if err != nil {
			t.Fatalf("orient %d: %v", o, err)
		}
		if back != o {
			t.Errorf("orient %d: gds spec (%v, %g) decodes to %d", o, refl, angle, back)
		}
	}
	if _, err := orientFromGDS(false, 45); err == nil {
		t.Error("45 degree angle accepted")
	}
}

func TestPlacementCountDeepHierarchy(t *testing.T) {
	lib := deepLib()
	n, err := lib.PlacementCount()
	if err != nil {
		t.Fatal(err)
	}
	// leaf = 2 shapes; pair = 3 leaves = 6; block = 3*2 pairs = 36;
	// top = 2 blocks + 1 leaf = 74
	if n != 74 {
		t.Fatalf("PlacementCount = %d, want 74", n)
	}
	// Walk agrees and numbers placements 0..n-1 in order
	var seqs []int64
	if err := lib.Walk(func(p Placement) error {
		seqs = append(seqs, p.Seq)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if int64(len(seqs)) != n {
		t.Fatalf("walked %d placements, count says %d", len(seqs), n)
	}
	for i, s := range seqs {
		if s != int64(i) {
			t.Fatalf("placement %d has seq %d", i, s)
		}
	}
}

// TestPlacementCountNoFlatten proves counting never expands arrays: a
// three-level nest of 1000x1000 AREFs (10^12 leaf placements) counts in
// microseconds.
func TestPlacementCountNoFlatten(t *testing.T) {
	lib := &Library{Name: "huge", Cells: []*Cell{
		{Name: "leaf", Boundaries: []geom.Polygon{unitRect(10, 10)}},
		{Name: "mid", Refs: []Ref{{Cell: "leaf", Cols: 1000, Rows: 1000,
			ColStep: geom.Pt(20, 0), RowStep: geom.Pt(0, 20)}}},
		{Name: "top", Refs: []Ref{{Cell: "mid", Cols: 1000, Rows: 1000,
			ColStep: geom.Pt(20000, 0), RowStep: geom.Pt(0, 20000)}}},
	}}
	n, err := lib.PlacementCount()
	if err != nil {
		t.Fatal(err)
	}
	if n != 1_000_000_000_000 {
		t.Fatalf("PlacementCount = %d, want 10^12", n)
	}
}

// TestWalkStreamsWithoutFlattening walks a library whose flattened size
// is a trillion placements but stops after the first 1000 via the
// callback error, proving emission is streaming rather than
// collect-then-iterate.
func TestWalkStreamsWithoutFlattening(t *testing.T) {
	lib := &Library{Name: "huge", Cells: []*Cell{
		{Name: "leaf", Boundaries: []geom.Polygon{unitRect(10, 10)}},
		{Name: "mid", Refs: []Ref{{Cell: "leaf", Cols: 1000, Rows: 1000,
			ColStep: geom.Pt(20, 0), RowStep: geom.Pt(0, 20)}}},
		{Name: "top", Refs: []Ref{{Cell: "mid", Cols: 1000, Rows: 1000,
			ColStep: geom.Pt(20000, 0), RowStep: geom.Pt(0, 20000)}}},
	}}
	stop := errors.New("enough")
	seen := 0
	err := lib.Walk(func(p Placement) error {
		seen++
		if seen == 1000 {
			return stop
		}
		return nil
	})
	if !errors.Is(err, stop) {
		t.Fatalf("walk err = %v, want sentinel", err)
	}
	if seen != 1000 {
		t.Fatalf("saw %d placements", seen)
	}
}

func TestWalkTransforms(t *testing.T) {
	// a single rect placed rotated 90° at (100, 0) inside a cell that is
	// itself mirrored across the horizontal axis at (0, 50): composed
	// world transform is MirrorY ∘ Rot90 applied to the rect.
	lib := &Library{Name: "xf", Cells: []*Cell{
		{Name: "leaf", Boundaries: []geom.Polygon{unitRect(30, 10)}},
		{Name: "mid", Refs: []Ref{{Cell: "leaf", Orient: OrientRot90,
			Origin: geom.Pt(100, 0), Cols: 1, Rows: 1}}},
		{Name: "top", Refs: []Ref{{Cell: "mid", Orient: OrientMirrorY,
			Origin: geom.Pt(0, 50), Cols: 1, Rows: 1}}},
	}}
	var got []Placement
	if err := lib.Walk(func(p Placement) error { got = append(got, p); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("placements = %d", len(got))
	}
	co := OrientMirrorY.Compose(OrientRot90)
	if got[0].Orient != co {
		t.Errorf("orient = %d, want %d", got[0].Orient, co)
	}
	// world vertex = MirrorY(Rot90(v) + (100,0)) + (0,50)
	want := make(geom.Polygon, 4)
	for i, v := range unitRect(30, 10) {
		q := OrientRot90.Apply(v).Add(geom.Pt(100, 0))
		want[i] = OrientMirrorY.Apply(q).Add(geom.Pt(0, 50))
	}
	if !reflect.DeepEqual(got[0].Polygon, want) {
		t.Errorf("world polygon = %v, want %v", got[0].Polygon, want)
	}
}

func TestWalkARefLattice(t *testing.T) {
	lib := &Library{Name: "aref", Cells: []*Cell{
		{Name: "leaf", Boundaries: []geom.Polygon{unitRect(5, 5)}},
		{Name: "top", Refs: []Ref{{Cell: "leaf", Origin: geom.Pt(10, 20),
			Cols: 3, Rows: 2, ColStep: geom.Pt(40, 0), RowStep: geom.Pt(0, 50)}}},
	}}
	var origins []geom.Point
	if err := lib.Walk(func(p Placement) error {
		origins = append(origins, p.Origin)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	want := []geom.Point{
		geom.Pt(10, 20), geom.Pt(50, 20), geom.Pt(90, 20),
		geom.Pt(10, 70), geom.Pt(50, 70), geom.Pt(90, 70),
	}
	if !reflect.DeepEqual(origins, want) {
		t.Fatalf("origins = %v, want %v", origins, want)
	}
}

func TestLibraryValidateErrors(t *testing.T) {
	cyclic := &Library{Name: "cyc", Cells: []*Cell{
		{Name: "a", Refs: []Ref{{Cell: "b", Cols: 1, Rows: 1}}},
		{Name: "b", Refs: []Ref{{Cell: "a", Cols: 1, Rows: 1}}},
	}}
	if err := cyclic.Validate(); err == nil {
		t.Error("cyclic library validated")
	}
	dangling := &Library{Name: "dang", Cells: []*Cell{
		{Name: "a", Refs: []Ref{{Cell: "nope", Cols: 1, Rows: 1}}},
	}}
	if err := dangling.Validate(); err == nil {
		t.Error("dangling reference validated")
	}
	selfref := &Library{Name: "self", Cells: []*Cell{
		{Name: "a", Refs: []Ref{{Cell: "a", Cols: 1, Rows: 1}}},
	}}
	if err := selfref.Validate(); err == nil {
		t.Error("self reference validated")
	}
}

func TestGDSLibRoundTrip(t *testing.T) {
	lib := deepLib()
	var buf bytes.Buffer
	if err := WriteGDSLib(&buf, lib); err != nil {
		t.Fatal(err)
	}
	back, err := ReadGDSLib(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != lib.Name {
		t.Errorf("name = %q", back.Name)
	}
	if len(back.Cells) != len(lib.Cells) {
		t.Fatalf("cells = %d, want %d", len(back.Cells), len(lib.Cells))
	}
	// placement streams must be identical: same order, same cells, same
	// orients, same world polygons
	var orig, rt []Placement
	if err := lib.Walk(func(p Placement) error { orig = append(orig, p); return nil }); err != nil {
		t.Fatal(err)
	}
	if err := back.Walk(func(p Placement) error { rt = append(rt, p); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(orig) != len(rt) {
		t.Fatalf("placements %d != %d", len(orig), len(rt))
	}
	for i := range orig {
		a, b := orig[i], rt[i]
		if a.Cell != b.Cell || a.Shape != b.Shape || a.Orient != b.Orient {
			t.Fatalf("placement %d: (%s,%d,%d) != (%s,%d,%d)",
				i, a.Cell, a.Shape, a.Orient, b.Cell, b.Shape, b.Orient)
		}
		if !reflect.DeepEqual(a.Polygon, b.Polygon) {
			t.Fatalf("placement %d polygon drifted:\n%v\n%v", i, a.Polygon, b.Polygon)
		}
	}
	n, err := back.PlacementCount()
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(len(orig)) {
		t.Fatalf("round-tripped count %d != %d", n, len(orig))
	}
}

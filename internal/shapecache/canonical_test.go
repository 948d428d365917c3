package shapecache

import (
	"crypto/sha256"
	"encoding/binary"
	"math"
	"testing"

	"maskfrac/internal/cover"
	"maskfrac/internal/geom"
	"maskfrac/internal/maskio"
	"maskfrac/internal/shapegen"
)

// oracleCanonicalize computes the canonical form from its definition:
// each of the eight transforms of the counterclockwise polygon,
// translated so its bounding-box minimum is the origin, negative zeros
// collapsed, read from every start vertex. The least sequence wins; the
// first transform keeps ties.
func oracleCanonicalize(pg geom.Polygon) Canonical {
	ccw := pg.EnsureCCW()
	var best Canonical
	var bestImg geom.Polygon
	bestStart := 0
	for t := Identity; t < numTransforms; t++ {
		img := transformPoly(ccw, t)
		b := img.Bounds()
		off := geom.Pt(b.X0, b.Y0)
		for i, p := range img {
			// adding +0 turns -0 into +0 and leaves every other value
			img[i] = geom.Pt(p.X-off.X+0, p.Y-off.Y+0)
		}
		for s := range img {
			if bestImg == nil || lessRotation(img, s, bestImg, bestStart) {
				best, bestImg, bestStart = Canonical{T: t, Off: off}, img, s
			}
		}
	}
	best.Poly = append(bestImg[bestStart:].Clone(), bestImg[:bestStart]...)
	return best
}

// lessRotation reports whether a read from vertex i precedes the
// equally long b read from vertex j.
func lessRotation(a geom.Polygon, i int, b geom.Polygon, j int) bool {
	for k := range a {
		if c := cmpPoint(a[(i+k)%len(a)], b[(j+k)%len(b)]); c != 0 {
			return c < 0
		}
	}
	return false
}

// oracleKey hashes the whole AppendPolygon encoding of c.Poly in one
// piece, followed by extra.
func oracleKey(c Canonical, extra []byte) Key {
	return sha256.Sum256(append(maskio.AppendPolygon(nil, c.Poly), extra...))
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// checkOracle asserts that Canonicalize and KeyWith give the oracle's
// Poly, T, Off and key bit for bit.
func checkOracle(t *testing.T, pg geom.Polygon) {
	t.Helper()
	want := oracleCanonicalize(pg)
	// Canonicalize allocates; CanonicalizeInto writes into a used
	// buffer with room for one image or for two
	n := len(pg)
	for _, got := range []Canonical{Canonicalize(pg), CanonicalizeInto(junk(n), pg), CanonicalizeInto(junk(2*n), pg)} {
		if got.T != want.T || !sameBits(got.Off.X, want.Off.X) || !sameBits(got.Off.Y, want.Off.Y) {
			t.Fatalf("T, Off = %d, %v; oracle %d, %v", got.T, got.Off, want.T, want.Off)
		}
		if len(got.Poly) != len(want.Poly) {
			t.Fatalf("%d vertices; oracle %d", len(got.Poly), len(want.Poly))
		}
		for i := range got.Poly {
			if !sameBits(got.Poly[i].X, want.Poly[i].X) || !sameBits(got.Poly[i].Y, want.Poly[i].Y) {
				t.Fatalf("vertex %d = %v; oracle %v", i, got.Poly[i], want.Poly[i])
			}
		}
		extra := []byte("mbf")
		if got.KeyWith(extra) != oracleKey(want, extra) {
			t.Fatal("key differs from the hash of the whole encoding")
		}
	}
}

// junk is a buffer of n NaN vertices, as a reused buffer may hold.
func junk(n int) geom.Polygon {
	pg := make(geom.Polygon, n)
	for i := range pg {
		pg[i] = geom.Pt(math.NaN(), math.NaN())
	}
	return pg
}

// dyadicShifts are translations that move dyadic coordinates exactly.
var dyadicShifts = []geom.Point{{X: 1337, Y: -4096}, {X: -0.625, Y: 96.5}}

// checkCongruent asserts that every D4 image of pg keys like pg, each
// moved by one of the dyadic shifts when pg's coordinates are exact.
func checkCongruent(t *testing.T, pg geom.Polygon, exact bool) {
	t.Helper()
	want := Canonicalize(pg).KeyWith(nil)
	for tr := Identity; tr < numTransforms; tr++ {
		var d geom.Point
		if exact {
			d = dyadicShifts[int(tr)%len(dyadicShifts)]
		}
		if Canonicalize(transformPoly(pg, tr).Translate(d)).KeyWith(nil) != want {
			t.Fatalf("transform %d shift %v: key differs", tr, d)
		}
	}
}

// maxFuzzVertices bounds a decoded polygon: the fuzzer shrinks every
// input it finds interesting by trying to delete each run of its
// bytes, a number of calls quadratic in the input's length.
const maxFuzzVertices = 64

// decodePolygon reads a fuzz input as a polygon: a header byte whose
// value mod 3 picks the coordinate kind, then four bytes per vertex, a
// little-endian int16 for X and one for Y, up to maxFuzzVertices
// vertices. Kind 0 takes the integers as they are, kind 1 divides them
// by 8 (dyadic) and kind 2 by 3 (not dyadic); the int16 minimum stands
// for -0. exact reports dyadic coordinates, which every dyadic shift
// moves exactly.
func decodePolygon(data []byte) (pg geom.Polygon, exact bool) {
	if len(data) == 0 {
		return nil, false
	}
	kind := data[0] % 3
	data = data[1:]
	pg = make(geom.Polygon, min(len(data)/4, maxFuzzVertices))
	for i := range pg {
		pg[i] = geom.Pt(decodeCoord(data[4*i:], kind), decodeCoord(data[4*i+2:], kind))
	}
	return pg, kind != 2
}

func decodeCoord(b []byte, kind byte) float64 {
	v := int16(binary.LittleEndian.Uint16(b))
	switch {
	case v == math.MinInt16:
		return math.Copysign(0, -1)
	case kind == 1:
		return float64(v) / 8
	case kind == 2:
		return float64(v) / 3
	}
	return float64(v)
}

// FuzzCanonicalize checks Canonicalize and KeyWith against the oracle
// on every decoded polygon, degenerate ones included; on valid ones
// the key's invariance under congruence; and on dyadic ones the exact
// round trip of shots through the canonical frame. The seed corpus in
// testdata/fuzz/FuzzCanonicalize holds the golden shapes, the ILT
// clips, the tie shapes, a symmetric square and a polygon whose least
// vertex repeats.
func FuzzCanonicalize(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		pg, exact := decodePolygon(data)
		if len(pg) == 0 {
			return
		}
		checkOracle(t, pg)
		// an inexact area near zero may take either sign, so a
		// transformed copy could read the polygon the other way round
		if pg.Validate() != nil || !exact && pg.Area() < 1 {
			return
		}
		checkCongruent(t, pg, exact)
		if !exact {
			return
		}
		c := Canonicalize(pg)
		shots := make([]geom.Rect, len(pg))
		for i := range pg {
			shots[i] = geom.RectFromCorners(pg[i], pg[(i+1)%len(pg)])
		}
		back := c.FromCanonical(c.ToCanonical(shots))
		for i := range shots {
			if back[i] != shots[i] {
				t.Fatalf("shot %d: %v came back as %v", i, shots[i], back[i])
			}
		}
	})
}

// tieShapes are shapes whose D4 images tie on their least vertex but
// differ later, so Canonicalize fills and compares more than one image,
// a path only one of the ten ILT clips (ILT-4) takes.
// testdata/fuzz/FuzzCanonicalize seeds the fuzzer with each of them.
func tieShapes() map[string]geom.Polygon {
	return map[string]geom.Polygon{
		// all eight images are one polygon: the first transform wins
		"plus": {
			geom.Pt(20, 0), geom.Pt(40, 0), geom.Pt(40, 20), geom.Pt(60, 20),
			geom.Pt(60, 40), geom.Pt(40, 40), geom.Pt(40, 60), geom.Pt(20, 60),
			geom.Pt(20, 40), geom.Pt(0, 40), geom.Pt(0, 20), geom.Pt(20, 20),
		},
		// every image starts at (0, 0); only MirrorX keeps the shape
		"U": {
			geom.Pt(0, 0), geom.Pt(90, 0), geom.Pt(90, 60), geom.Pt(60, 60),
			geom.Pt(60, 30), geom.Pt(30, 30), geom.Pt(30, 60), geom.Pt(0, 60),
		},
		// every image starts at (0, 0) and half of them lie on their side
		"rect": {geom.Pt(0, 0), geom.Pt(50, 0), geom.Pt(50, 20), geom.Pt(0, 20)},
		// six images start at (0, 0); only Transpose keeps the shape
		"transpose-L": {
			geom.Pt(0, 0), geom.Pt(90, 0), geom.Pt(90, 30),
			geom.Pt(30, 30), geom.Pt(30, 90), geom.Pt(0, 90),
		},
	}
}

// TestCanonicalizeMatchesOracle checks the golden shapes, the tie
// shapes, the Table 2 ILT clips and (outside -short) the Table 3 suite,
// each under all eight transforms and the dyadic shifts, against the
// oracle.
func TestCanonicalizeMatchesOracle(t *testing.T) {
	var shapes []geom.Polygon
	for _, pg := range goldenShapes() {
		shapes = append(shapes, pg)
	}
	for _, pg := range tieShapes() {
		shapes = append(shapes, pg)
	}
	suite := shapegen.ILTSuite()
	if !testing.Short() {
		params := cover.DefaultParams()
		suite = append(suite, shapegen.AGBSuite(params)...)
		suite = append(suite, shapegen.RGBSuite(params)...)
	}
	for _, s := range suite {
		shapes = append(shapes, s.Target)
	}
	for _, pg := range shapes {
		for tr := Identity; tr < numTransforms; tr++ {
			for _, d := range append([]geom.Point{{}}, dyadicShifts...) {
				checkOracle(t, transformPoly(pg, tr).Translate(d))
			}
		}
	}
}

var canonSink Canonical

// TestCanonicalizeAllocs pins the cost of keying a placement on ILT-2:
// one image wins on its least vertex, so Canonicalize allocates only
// the returned polygon, and KeyWith at most one buffer.
func TestCanonicalizeAllocs(t *testing.T) {
	pg := shapegen.ILTSuite()[1].Target
	if n := testing.AllocsPerRun(100, func() { canonSink = Canonicalize(pg) }); n > 1 {
		t.Errorf("Canonicalize: %v allocations per call, want at most 1", n)
	}
	c, extra := Canonicalize(pg), []byte("mbf")
	if n := testing.AllocsPerRun(100, func() { c.KeyWith(extra) }); n > 1 {
		t.Errorf("KeyWith: %v allocations per call, want at most 1", n)
	}
	// with room for two images, neither one winner nor a tie allocates
	for _, pg := range []geom.Polygon{pg, tieShapes()["plus"]} {
		buf := make(geom.Polygon, 2*len(pg))
		if n := testing.AllocsPerRun(100, func() { canonSink = CanonicalizeInto(buf, pg) }); n != 0 {
			t.Errorf("CanonicalizeInto, %d vertices: %v allocations per call, want 0", len(pg), n)
		}
	}
}

var keySink Key

// BenchmarkCanonicalize times ILT-2, where one image wins on its least
// vertex, and a square, whose eight images all tie: the worst case.
func BenchmarkCanonicalize(b *testing.B) {
	for _, bc := range []struct {
		name string
		pg   geom.Polygon
	}{
		{"ILT-2", shapegen.ILTSuite()[1].Target},
		{"square", geom.Polygon{geom.Pt(0, 0), geom.Pt(70, 0), geom.Pt(70, 70), geom.Pt(0, 70)}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				canonSink = Canonicalize(bc.pg)
			}
		})
	}
}

func BenchmarkKeyWith(b *testing.B) {
	c, extra := Canonicalize(shapegen.ILTSuite()[1].Target), []byte("mbf")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		keySink = c.KeyWith(extra)
	}
}

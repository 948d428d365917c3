package cover

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"maskfrac/internal/geom"
	"maskfrac/internal/raster"
)

// rectPoly returns the rectangle [x0, x1] × [y0, y1] as a polygon.
func rectPoly(x0, y0, x1, y1 float64) geom.Polygon {
	return geom.Polygon{geom.Pt(x0, y0), geom.Pt(x1, y0), geom.Pt(x1, y1), geom.Pt(x0, y1)}
}

// partsCase is a random stitched multi-part solution.
type partsCase struct {
	in    *Instance
	parts []Part
	shots []geom.Rect
	pairs [][2]int
}

// randomParts builds n parts side by side, each beyond the others'
// interaction range: a main rectangle or L, sometimes with an assist
// bar beside it. Every vertex sits on whole nanometres plus off. The
// models of TestEvaluatePartsExact have a sampling margin of a whole
// number of pixels plus one half, so the union grid's pixel centres
// fall on that same lattice, up to the rounding of an inexact origin:
// classes and strips are then decided on knife edges that any change
// of sampling coordinate tips. Each part gets up to five random shots,
// half of them on the lattice too, and random L-pairs among them.
// reach adds to part 0 a shot across part 1's main target, so that the
// two windows must merge; leave adds to the last part a shot whose
// support leaves the union grid.
func randomParts(t *testing.T, rng *rand.Rand, params Params, off float64, n int, reach, leave bool) partsCase {
	t.Helper()
	r := 3*max(params.Sigma, params.Beta) + params.Gamma
	spacing := math.Ceil(2*r) + 80
	lattice := func(v float64) float64 { return math.Floor(v) + off }
	var c partsCase
	var targets []geom.Polygon
	mains := make([]geom.Rect, n)
	for p := range n {
		ox, oy := off+float64(p)*spacing, off+float64(rng.Intn(20))
		w, h := float64(14+rng.Intn(27)), float64(14+rng.Intn(27))
		mains[p] = geom.Rect{X0: ox, Y0: oy, X1: ox + w, Y1: oy + h}
		part := Part{Targets: []int{len(targets)}}
		if rng.Intn(2) == 0 {
			targets = append(targets, rectPoly(ox, oy, ox+w, oy+h))
		} else {
			a := float64(6 + rng.Intn(int(min(w, h))-9))
			targets = append(targets, geom.Polygon{
				geom.Pt(ox, oy), geom.Pt(ox+w, oy), geom.Pt(ox+w, oy+a),
				geom.Pt(ox+a, oy+a), geom.Pt(ox+a, oy+h), geom.Pt(ox, oy+h),
			})
		}
		if rng.Intn(2) == 0 {
			bx := ox + w + float64(8+rng.Intn(7))
			part.Targets = append(part.Targets, len(targets))
			targets = append(targets, rectPoly(bx, oy, bx+float64(4+rng.Intn(3)), oy+h))
		}
		c.parts = append(c.parts, part)
	}
	var err error
	if c.in, err = NewInstance(targets, params); err != nil {
		t.Fatal(err)
	}
	for p := range c.parts {
		base := len(c.shots)
		m := mains[p]
		for range 1 + rng.Intn(5) {
			x0 := m.X0 - 6 + rng.Float64()*(m.W()+6)
			y0 := m.Y0 - 6 + rng.Float64()*(m.H()+6)
			s := geom.Rect{X0: x0, Y0: y0, X1: x0 + 6 + rng.Float64()*30, Y1: y0 + 6 + rng.Float64()*30}
			if rng.Intn(2) == 0 {
				s = geom.Rect{X0: lattice(s.X0), Y0: lattice(s.Y0), X1: lattice(s.X1), Y1: lattice(s.Y1)}
			}
			c.shots = append(c.shots, s)
		}
		if p == 0 && reach && n > 1 {
			next := mains[1]
			c.shots = append(c.shots, geom.Rect{
				X0: m.X0 + 4, Y0: max(m.Y0, next.Y0) + 2,
				X1: next.X0 + next.W()/2, Y1: max(m.Y0, next.Y0) + 12,
			})
		}
		if p == n-1 && leave {
			c.shots = append(c.shots, geom.Rect{X0: m.X0 + 3, Y0: m.Y0 + 3, X1: m.X1 + 2*r + 20, Y1: m.Y0 + 11})
		}
		for k := base; k+1 < len(c.shots); k += 2 {
			if rng.Intn(2) == 0 {
				c.pairs = append(c.pairs, [2]int{k, k + 1})
			}
		}
		c.parts[p].Shots = len(c.shots) - base
	}
	return c
}

// TestEvaluatePartsExact checks the windowed evaluation against the
// union grid bit for bit: random instances of two to four parts under
// the single and the double Gaussian, with and without the CD band,
// translated by non-dyadic offsets so that the union origin is
// inexact, with shots that force a window merge and shots whose
// support leaves the grid.
func TestEvaluatePartsExact(t *testing.T) {
	models := map[string]Params{
		"gaussian":    {Sigma: 6.5, Gamma: 2, Rho: 0.5, Pitch: 1, Lmin: 8},
		"no band":     {Sigma: 6.5, Gamma: 0, Rho: 0.5, Pitch: 1, Lmin: 8},
		"backscatter": {Sigma: 6.5, Gamma: 2, Rho: 0.5, Pitch: 1, Lmin: 8, Beta: 25.5, Eta: 0.3},
	}
	for name, params := range models {
		rng := rand.New(rand.NewSource(int64(len(name))))
		failing, merged := 0, 0
		trials := 0
		for _, off := range []float64{0.1, 1.0 / 3, 2.0 / 3} {
			for trial := range 12 {
				reach, leave := trial%2 == 0, trial%3 == 0
				c := randomParts(t, rng, params, off, 2+trial%3, reach, leave)
				want := c.in.Whole().EvaluatePaired(c.shots, c.pairs)
				got, cov := c.in.EvaluateParts(c.shots, c.pairs, c.parts)
				if got.FailOn != want.FailOn || got.FailOff != want.FailOff ||
					math.Float64bits(got.Cost) != math.Float64bits(want.Cost) {
					t.Fatalf("%s, offset %v, trial %d: windows give %+v, the union grid %+v",
						name, off, trial, got, want)
				}
				if reach && cov.Windows >= len(c.parts) {
					t.Fatalf("%s, offset %v, trial %d: a shot across two parts left %d windows for %d parts",
						name, off, trial, cov.Windows, len(c.parts))
				}
				if cov.Windows < len(c.parts) {
					merged++
				}
				if want.Fail() > 0 {
					failing++
				}
				trials++
			}
		}
		if failing < trials/2 || merged == 0 {
			t.Errorf("%s: %d of %d trials had failing pixels and %d merged windows; the check needs both",
				name, failing, trials, merged)
		}
	}
}

// TestEvaluatePartsSinglePart checks that a one-part solution is scored
// as one window over the whole union grid, as Whole scores it.
func TestEvaluatePartsSinglePart(t *testing.T) {
	in, err := NewInstance([]geom.Polygon{square(40)}, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	shots := []geom.Rect{{X0: 0, Y0: 0, X1: 30, Y1: 40}}
	got, cov := in.EvaluateParts(shots, nil, []Part{{Targets: []int{0}, Shots: 1}})
	if want := in.Whole().Evaluate(shots); got != want {
		t.Errorf("got %+v, want %+v", got, want)
	}
	if cov.Windows != 1 || cov.Pixels != in.Whole().Grid.Len() {
		t.Errorf("coverage %+v, want one window of %d pixels", cov, in.Whole().Grid.Len())
	}
}

// TestEvaluatePartsChecksParts checks that parts which leave a target
// out, or list one twice, are refused rather than scored.
func TestEvaluatePartsChecksParts(t *testing.T) {
	in, err := NewInstance([]geom.Polygon{square(40), squareAt(200, 0, 30), squareAt(400, 0, 30)}, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	for name, parts := range map[string][]Part{
		"target left out": {{Targets: []int{0}}, {Targets: []int{1}}},
		"target twice":    {{Targets: []int{0, 1}}, {Targets: []int{1, 2}}},
		"shots miscounted": {{Targets: []int{0}, Shots: 1}, {Targets: []int{1}},
			{Targets: []int{2}}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: EvaluateParts did not panic", name)
				}
			}()
			in.EvaluateParts(nil, nil, parts)
		}()
	}
}

// TestSampleMatchesNewMultiProblem checks that a sampled subset is the
// problem NewMultiProblem builds for those shapes alone.
func TestSampleMatchesNewMultiProblem(t *testing.T) {
	shapes := []geom.Polygon{square(30), squareAt(100.1, 0.3, 20), squareAt(0, 200, 25)}
	in, err := NewInstance(shapes, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	sub := in.Sample([]int{1, 2})
	alone, err := NewMultiProblem(shapes[1:], DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if sub.Grid != alone.Grid || !reflect.DeepEqual(sub.Class, alone.Class) ||
		!reflect.DeepEqual(sub.Inside.Bits, alone.Inside.Bits) ||
		sub.OnCount() != alone.OnCount() || sub.OffCount() != alone.OffCount() {
		t.Error("sampled subset differs from NewMultiProblem of the same shapes")
	}
}

// TestMultiTargetInside checks that targets rasterized into the shared
// Inside bitmap give the OR of their single-target rasterizations,
// with vertices on pixel-centre rows and columns, where the half-open
// scanline rule decides.
func TestMultiTargetInside(t *testing.T) {
	// the default sampling margin is 22.75 nm, so with the union box at
	// the origin pixel centres sit at whole nanometres plus 0.75
	targets := []geom.Polygon{
		rectPoly(0, 0, 20, 20),
		rectPoly(24.75, 3.75, 40.75, 30.75),
		{geom.Pt(45.75, 0.75), geom.Pt(70.75, 0.75), geom.Pt(70.75, 10.75),
			geom.Pt(55.75, 10.75), geom.Pt(55.75, 25.75), geom.Pt(45.75, 25.75)},
		{geom.Pt(10.75, 40.75), geom.Pt(30.75, 45.75), geom.Pt(20.75, 60.75)},
	}
	p, err := NewMultiProblem(targets, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	want := make([]bool, p.Grid.Len())
	for _, tg := range targets {
		bm := raster.NewBitmap(p.Grid)
		raster.RasterizeInto(bm.Bits, p.Grid, p.Grid.Whole(), tg)
		for k, v := range bm.Bits {
			want[k] = want[k] || v
		}
	}
	if !reflect.DeepEqual(p.Inside.Bits, want) {
		t.Error("shared Inside differs from the OR of single-target rasterizations")
	}
	// the rows through the vertices at y = 10.75 and 25.75 are pixel
	// centre rows of the grid
	if c := p.Grid.Center(0, 0); c.Y-math.Floor(c.Y) != 0.75 {
		t.Fatalf("pixel centres at y = %v, want whole nanometres plus 0.75", c.Y)
	}
}

// TestNewInstanceRejectsNonFinite checks that a target with a NaN or
// infinite coordinate is refused before anything is sampled.
func TestNewInstanceRejectsNonFinite(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		pg := rectPoly(0, 0, 70, 70)
		pg[2].Y = bad
		if _, err := NewInstance([]geom.Polygon{rectPoly(200, 0, 240, 40), pg}, DefaultParams()); err == nil {
			t.Errorf("NewInstance accepted a vertex (70, %v)", bad)
		}
	}
}

package ebeam

import (
	"math"
	"math/rand"
	"testing"
)

// TestEdgeProfiles32MatchesReference is the randomized strip property
// test for the float32 kernel: for both model shapes it samples random
// strip geometries (origin, pitch, window offset/length, edge pair) and
// asserts every sample agrees with the float64 EdgeProfiles reference
// within ProfileTol32, reporting the first diverging strip coordinate.
func TestEdgeProfiles32MatchesReference(t *testing.T) {
	models := map[string]*Model{
		"single": NewModel(12),
		"double": NewDoubleGaussian(10, 120, 0.5),
	}
	for name, m := range models {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(8))
			ref := make([]float64, 0, 512)
			got := make([]float32, 0, 512)
			for seq := 0; seq < 120; seq++ {
				c := rng.Intn(m.Components())
				sigma := m.comps[c].sigma
				t0 := (rng.Float64() - 0.5) * 200
				pitch := 0.5 + rng.Float64()*2*sigma // sub-pixel ramps through multi-σ pitches
				i0 := rng.Intn(64) - 32
				n := 1 + rng.Intn(512)
				// place edges so strips cover interior, clamp boundary,
				// and fully-saturated cases
				a := t0 + (rng.Float64()*float64(n)-8)*pitch
				b := a + rng.Float64()*6*sigma
				ref = append(ref[:0], make([]float64, n)...)
				got = append(got[:0], make([]float32, n)...)
				m.EdgeProfiles(ref, c, t0, pitch, i0, a, b)
				m.EdgeProfiles32(got, c, t0, pitch, i0, a, b)
				for i := range ref {
					if d := math.Abs(float64(got[i]) - ref[i]); d > ProfileTol32 {
						t.Fatalf("seq %d: component %d (σ=%g) strip t0=%g pitch=%g i0=%d edges (%g,%g): "+
							"first divergence at pixel %d (t=%g): float32 %v vs float64 %v (|Δ|=%.3g > %g)",
							seq, c, sigma, t0, pitch, i0, a, b,
							i0+i, t0+(float64(i0+i)+0.5)*pitch, got[i], ref[i], d, ProfileTol32)
					}
				}
			}
		})
	}
}

// TestEdgeProfiles32WindowExactness pins the kernel's exactness
// contract: the same absolute pixel filled through two different
// (i0, len) windows must produce bit-identical float32 values, since
// the incremental evaluator relies on add/remove strips cancelling a
// shot's accumulated dose exactly.
func TestEdgeProfiles32WindowExactness(t *testing.T) {
	m := NewDoubleGaussian(10, 120, 0.5)
	rng := rand.New(rand.NewSource(9))
	for seq := 0; seq < 60; seq++ {
		c := rng.Intn(m.Components())
		t0 := (rng.Float64() - 0.5) * 100
		pitch := 0.5 + rng.Float64()*10
		a := t0 + rng.Float64()*80
		b := a + rng.Float64()*60
		// a wide window and a shifted, shorter one overlapping it
		wide := make([]float32, 400)
		m.EdgeProfiles32(wide, c, t0, pitch, -50, a, b)
		off := rng.Intn(200)
		n := 1 + rng.Intn(400-off)
		sub := make([]float32, n)
		m.EdgeProfiles32(sub, c, t0, pitch, -50+off, a, b)
		for i := range sub {
			if sub[i] != wide[off+i] {
				t.Fatalf("seq %d: pixel %d differs across windows: %v (sub) vs %v (wide)",
					seq, -50+off+i, sub[i], wide[off+i])
			}
		}
	}
}

// TestSetProfileCheck verifies the toggle semantics and that a checked
// fill passes cleanly (a divergence would panic inside EdgeProfiles32).
func TestSetProfileCheck(t *testing.T) {
	prev := SetProfileCheck(true)
	defer SetProfileCheck(prev)
	m := NewDoubleGaussian(10, 120, 0.5)
	dst := make([]float32, 256)
	m.EdgeProfiles32(dst, 1, -30, 1.25, -7, 3, 95)
	if on := SetProfileCheck(false); !on {
		t.Fatal("SetProfileCheck(true) did not stick")
	}
	if on := SetProfileCheck(prev); on {
		t.Fatal("SetProfileCheck(false) did not stick")
	}
}

// TestEdgeProfiles32MatchesPerSampleFormula pins the kernel's segment
// split bit for bit: every sample of EdgeProfiles32 must equal the full
// per-sample formula (applySample32 on both edges), whether it falls in
// a constant run, between a run and the ramp, or in the ramp. Besides
// random strips of both models it places strips wholly before and
// wholly after both edges, edges on a sample centre, edges that put a
// sample exactly on a clamp boundary (u = 0 or u = lutCells) or just
// inside one (0 < u < 1 or lutCells−1 < u < lutCells), and windows
// whose ramp runs off either end, so lo and hi hit 0 and n.
func TestEdgeProfiles32MatchesPerSampleFormula(t *testing.T) {
	models := map[string]*Model{
		"single": NewModel(6.25),
		"double": NewDoubleGaussian(10, 120, 0.5),
	}
	for name, m := range models {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(20))
			var inRun, nearRun, onClamp int
			for seq := 0; seq < 3000; seq++ {
				c := rng.Intn(m.Components())
				comp := &m.comps[c]
				s3, step := 3*comp.sigma, comp.step
				t0 := (rng.Float64() - 0.5) * 200
				pitch := []float64{1, 0.5, 2, 0.25 + rng.Float64()*2*comp.sigma}[rng.Intn(4)]
				i0 := rng.Intn(64) - 32
				n := 1 + rng.Intn(300)
				center := func(i int) float64 { return t0 + (float64(i0+i)+0.5)*pitch }
				// an edge placed relative to sample k (which may lie
				// outside the strip): random, on its centre, with u = 0
				// or u = lutCells there, or within one LUT cell of either
				edge := func() float64 {
					k := rng.Intn(n+40) - 20
					switch rng.Intn(7) {
					case 0:
						return center(k)
					case 1:
						return center(k) + s3
					case 2:
						return center(k) - s3
					case 3:
						return center(k) + s3 - rng.Float64()*step
					case 4:
						return center(k) - s3 + rng.Float64()*step
					case 5: // wholly beyond the strip on one side
						return center([]int{-1, n}[rng.Intn(2)]) + float64(1-2*rng.Intn(2))*(s3+rng.Float64()*50)
					}
					return t0 + (rng.Float64()*float64(n+20)-10)*pitch
				}
				a, b := edge(), edge()
				if a > b {
					a, b = b, a
				}
				got := make([]float32, n)
				want := make([]float32, n)
				m.EdgeProfiles32(got, c, t0, pitch, i0, a, b)
				for i := range want {
					applySample32(want, comp.lut32, i, t0, pitch, i0, a, s3, step, +1)
					applySample32(want, comp.lut32, i, t0, pitch, i0, b, s3, step, -1)
					for _, e := range [2]float64{a, b} {
						switch u := sampleU(t0, pitch, i0, i, e, s3, step); {
						case u == 0 || u == lutCells:
							onClamp++
						case u < 0 || u > lutCells:
							inRun++
						case u < 1 || u > lutCells-1:
							nearRun++
						}
					}
				}
				for i := range want {
					if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
						t.Fatalf("seq %d: component %d (σ=%g) strip t0=%g pitch=%g i0=%d n=%d edges (%g,%g): "+
							"pixel %d: kernel %v (%#x), per-sample formula %v (%#x)",
							seq, c, comp.sigma, t0, pitch, i0, n, a, b,
							i0+i, got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
					}
				}
			}
			if inRun == 0 || nearRun == 0 || onClamp == 0 {
				t.Fatalf("samples in a constant run %d, within a LUT cell of one %d, on a clamp boundary %d: want all > 0",
					inRun, nearRun, onClamp)
			}
			t.Logf("%d samples in a constant run, %d within a LUT cell of one, %d on a clamp boundary",
				inRun, nearRun, onClamp)
		})
	}
}

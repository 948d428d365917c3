package shapegen

import (
	"math/rand"
	"testing"

	"maskfrac/internal/cover"
	"maskfrac/internal/geom"
	"maskfrac/internal/raster"
)

// randSource returns a deterministic RNG.
func randSource(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func TestILTShapeDeterministic(t *testing.T) {
	a := ILTShape(42, 3)
	b := ILTShape(42, 3)
	if len(a.Target) != len(b.Target) {
		t.Fatal("same seed produced different shapes")
	}
	for i := range a.Target {
		if a.Target[i] != b.Target[i] {
			t.Fatal("same seed produced different vertices")
		}
	}
	c := ILTShape(43, 3)
	if len(a.Target) == len(c.Target) && a.Target[0] == c.Target[0] {
		t.Error("different seeds produced identical shapes")
	}
}

func TestILTShapeValid(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		s := ILTShape(seed, 3)
		if err := s.Target.Validate(); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
		if s.Target.Area() < 1000 {
			t.Errorf("seed %d: area %v too small", seed, s.Target.Area())
		}
		if s.Known != 0 || s.GenSet != nil {
			t.Errorf("seed %d: ILT shape has generation metadata", seed)
		}
	}
}

func TestILTSuite(t *testing.T) {
	suite := ILTSuite()
	if len(suite) != 10 {
		t.Fatalf("suite size = %d", len(suite))
	}
	names := map[string]bool{}
	for _, s := range suite {
		if names[s.Name] {
			t.Errorf("duplicate name %s", s.Name)
		}
		names[s.Name] = true
		if err := s.Target.Validate(); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
	}
	if !names["ILT-1"] || !names["ILT-10"] {
		t.Error("missing expected names")
	}
}

func TestAGBFeasibleByConstruction(t *testing.T) {
	params := cover.DefaultParams()
	s := AGB(7, 4, params)
	if s.Target == nil {
		t.Fatal("generation failed")
	}
	if s.Known != 4 || len(s.GenSet) != 4 {
		t.Fatalf("metadata: known=%d genset=%d", s.Known, len(s.GenSet))
	}
	p, err := cover.NewProblem(s.Target, params)
	if err != nil {
		t.Fatal(err)
	}
	st := p.Evaluate(s.GenSet)
	if !st.Feasible() {
		t.Errorf("generating shots infeasible for their own contour: %+v", st)
	}
}

func TestRGBUnionMatchesTarget(t *testing.T) {
	params := cover.DefaultParams()
	s := RGB(7, 5, params)
	if s.Target == nil {
		t.Fatal("generation failed")
	}
	if !s.Target.IsRectilinear() {
		t.Error("RGB target not rectilinear")
	}
	// the target polygon area equals the union area of the shots
	extent := chainExtent(5)
	g := raster.Grid{X0: 0, Y0: 0, Pitch: 1, W: int(extent), H: int(extent)}
	bm := raster.NewBitmap(g)
	for _, r := range s.GenSet {
		fillRect(bm, r)
	}
	if got, want := s.Target.Area(), float64(bm.Count()); got != want {
		t.Errorf("target area %v != union pixel count %v", got, want)
	}
}

func TestSuitesMatchPaperOptimals(t *testing.T) {
	if testing.Short() {
		t.Skip("suite generation in -short mode")
	}
	params := cover.DefaultParams()
	agb := AGBSuite(params)
	wantA := []int{3, 16, 17, 7, 3}
	for i, s := range agb {
		if s.Target == nil {
			t.Fatalf("%s failed to generate", s.Name)
		}
		if s.Known != wantA[i] {
			t.Errorf("%s known=%d want %d", s.Name, s.Known, wantA[i])
		}
	}
	rgb := RGBSuite(params)
	wantR := []int{5, 7, 5, 9, 6}
	for i, s := range rgb {
		if s.Target == nil {
			t.Fatalf("%s failed to generate", s.Name)
		}
		if s.Known != wantR[i] {
			t.Errorf("%s known=%d want %d", s.Name, s.Known, wantR[i])
		}
	}
}

func TestCertificateHoldsAgainstHeuristics(t *testing.T) {
	// the certified optimal must be a true lower bound: no method may
	// find a feasible solution with fewer shots. Spot-check with the
	// generating set reduced by one (must be infeasible).
	params := cover.DefaultParams()
	for _, s := range []Shape{AGB(7, 4, params), RGB(7, 5, params)} {
		if s.Target == nil {
			t.Fatal("generation failed")
		}
		p, err := cover.NewProblem(s.Target, params)
		if err != nil {
			t.Fatal(err)
		}
		for drop := range s.GenSet {
			sub := make([]geom.Rect, 0, len(s.GenSet)-1)
			sub = append(sub, s.GenSet[:drop]...)
			sub = append(sub, s.GenSet[drop+1:]...)
			if st := p.Evaluate(sub); st.Feasible() {
				t.Errorf("%s: dropping generating shot %d stays feasible — not irreducible", s.Name, drop)
			}
		}
	}
}

func TestChainShotsRespectBounds(t *testing.T) {
	// chains must stay within the margin or return nil
	extent := chainExtent(6)
	found := 0
	for seed := int64(0); seed < 20; seed++ {
		shots := chainShots(randSource(seed), 6, extent, 0.5, 0.3)
		if shots == nil {
			continue
		}
		found++
		for _, r := range shots {
			if r.X0 < 15 || r.Y0 < 15 || r.X1 > extent-15 || r.Y1 > extent-15 {
				t.Errorf("seed %d: shot %v outside margin", seed, r)
			}
			if r.W() < 20 || r.H() < 20 {
				t.Errorf("seed %d: degenerate shot %v", seed, r)
			}
		}
	}
	if found == 0 {
		t.Error("no chain generated in 20 seeds")
	}
}

func TestGeneratedSuiteDeterminism(t *testing.T) {
	params := cover.DefaultParams()
	a := RGB(11, 5, params)
	b := RGB(11, 5, params)
	if len(a.GenSet) != len(b.GenSet) {
		t.Fatal("nondeterministic generation")
	}
	for i := range a.GenSet {
		if a.GenSet[i] != b.GenSet[i] {
			t.Fatal("nondeterministic shots")
		}
	}
}

func TestSRAFCluster(t *testing.T) {
	cluster := SRAFCluster(3, 4)
	if len(cluster) != 5 {
		t.Fatalf("cluster size = %d", len(cluster))
	}
	main := cluster[0]
	if main.Area() < 45*45 {
		t.Errorf("main feature too small: %v", main.Area())
	}
	mainBox := main.Bounds()
	for i, bar := range cluster[1:] {
		if err := bar.Validate(); err != nil {
			t.Errorf("bar %d: %v", i, err)
		}
		// bars must not touch the main feature
		if bar.Bounds().Overlaps(mainBox) {
			t.Errorf("bar %d overlaps the main feature", i)
		}
		// bars are sub-resolution thin: min dimension clearly below main's
		b := bar.Bounds()
		minDim := b.W()
		if b.H() < minDim {
			minDim = b.H()
		}
		if minDim > 20 {
			t.Errorf("bar %d min dimension %v too wide for an SRAF", i, minDim)
		}
	}
	// deterministic
	again := SRAFCluster(3, 4)
	for i := range cluster {
		if len(cluster[i]) != len(again[i]) || cluster[i][0] != again[i][0] {
			t.Fatal("SRAFCluster not deterministic")
		}
	}
}

func TestSRAFClusterBarSides(t *testing.T) {
	// with 4 bars, one lands on each side of the main feature
	cluster := SRAFCluster(11, 4)
	main := cluster[0].Bounds()
	sides := map[string]bool{}
	for _, bar := range cluster[1:] {
		b := bar.Bounds()
		switch {
		case b.Y1 <= main.Y0:
			sides["below"] = true
		case b.Y0 >= main.Y1:
			sides["above"] = true
		case b.X1 <= main.X0:
			sides["left"] = true
		case b.X0 >= main.X1:
			sides["right"] = true
		}
	}
	if len(sides) != 4 {
		t.Errorf("bars cover %d sides, want 4: %v", len(sides), sides)
	}
}

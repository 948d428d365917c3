package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"go/parser"
	"go/token"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"maskfrac/internal/geom"
	"maskfrac/internal/maskio"
	"maskfrac/internal/shapecache"
	"maskfrac/internal/shapegen"
)

// TestDigestHelper prints the input digest for $PERFBENCH_DIGEST_SEED;
// TestSameSeedSameInputsAcrossProcesses runs it in a child process.
func TestDigestHelper(t *testing.T) {
	s := os.Getenv("PERFBENCH_DIGEST_SEED")
	if s == "" {
		t.Skip("helper for TestSameSeedSameInputsAcrossProcesses")
	}
	seed, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	d, err := inputDigest(seed)
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout.WriteString("digest=" + d + "\n")
}

func childDigest(t *testing.T, seed int64) string {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^TestDigestHelper$", "-test.count=1")
	cmd.Env = append(os.Environ(), "PERFBENCH_DIGEST_SEED="+strconv.FormatInt(seed, 10))
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("child process: %v", err)
	}
	for _, line := range strings.Split(string(out), "\n") {
		if d, ok := strings.CutPrefix(line, "digest="); ok {
			return d
		}
	}
	t.Fatalf("child printed no digest:\n%s", out)
	return ""
}

func TestSameSeedSameInputsAcrossProcesses(t *testing.T) {
	for _, seed := range []int64{DefaultSeed, 7} {
		a, b := childDigest(t, seed), childDigest(t, seed)
		if a != b {
			t.Errorf("seed %d: two processes generated different inputs (%s vs %s)", seed, a, b)
		}
		own, err := inputDigest(seed)
		if err != nil {
			t.Fatal(err)
		}
		if own != a {
			t.Errorf("seed %d: child and test process disagree (%s vs %s)", seed, a, own)
		}
	}
}

func TestDefaultSeedIsTable2(t *testing.T) {
	suite := shapegen.ILTSuite()
	want := []int{0, 1, 2, 5, 6} // ILT-1, -2, -3, -6, -7
	clips := ILTClips(DefaultSeed)
	if len(clips) != len(want) {
		t.Fatalf("%d clips, want %d", len(clips), len(want))
	}
	for i, c := range clips {
		ref := suite[want[i]]
		if c.Name != ref.Name {
			t.Errorf("clip %d is %s, want %s", i, c.Name, ref.Name)
		}
		if len(c.Target) != len(ref.Target) {
			t.Fatalf("%s: %d vertices, want %d", c.Name, len(c.Target), len(ref.Target))
		}
		for k := range c.Target {
			if c.Target[k] != ref.Target[k] {
				t.Fatalf("%s vertex %d is %v, want %v", c.Name, k, c.Target[k], ref.Target[k])
			}
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	seen := map[string]int64{}
	for _, seed := range []int64{DefaultSeed, 1, 2, 3} {
		d, err := inputDigest(seed)
		if err != nil {
			t.Fatal(err)
		}
		if prev, ok := seen[d]; ok {
			t.Errorf("seeds %d and %d generate identical inputs", prev, seed)
		}
		seen[d] = seed
	}
}

// TestSeedsKeepTheWork checks what keeps the figures comparable across
// seeds: every seed replays the same congruence classes, and the
// manhattan tile holds the same groups up to translation.
func TestSeedsKeepTheWork(t *testing.T) {
	classes := func(seed int64) map[shapecache.Key]int {
		out := map[shapecache.Key]int{}
		err := ReplayLibrary(seed).Walk(func(pl maskio.Placement) error {
			out[shapecache.Canonicalize(pl.Polygon).KeyWith(nil)]++
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	base := classes(DefaultSeed)
	if len(base) != len(tableClips) {
		t.Fatalf("default mask has %d classes, want %d", len(base), len(tableClips))
	}
	for _, seed := range []int64{1, 2, 3} {
		got := classes(seed)
		for k, n := range base {
			if got[k] != n {
				t.Errorf("seed %d: class multiplicity %d, default %d", seed, got[k], n)
			}
		}
	}

	shapesOf := func(seed int64) map[string]int {
		out := map[string]int{}
		for _, g := range ManhattanTile(seed) {
			bb := g.Shapes[0].Bounds()
			key := g.Kind
			for _, pg := range g.Shapes {
				key += fmt.Sprint(pg.Translate(geom.Pt(-bb.X0, -bb.Y0)))
			}
			out[key]++
		}
		return out
	}
	want := shapesOf(DefaultSeed)
	for _, seed := range []int64{1, 2} {
		got := shapesOf(seed)
		for k, n := range want {
			if got[k] != n {
				t.Errorf("seed %d: manhattan shape %s appears %d times, default %d", seed, k, got[k], n)
			}
		}
	}
}

// TestRectilinearVertexLists checks that the manhattan shapes are the
// vertex lists the generator wrote — axis-parallel edges, the vertex
// count of their kind, counterclockwise — and that no file of this
// package imports the raster package, whose contour tracer is not
// deterministic (see README.md).
func TestRectilinearVertexLists(t *testing.T) {
	for _, g := range ManhattanTile(3) {
		if g.Kind == "sraf" {
			continue
		}
		pg := g.Shapes[0]
		want := map[string][]int{"L": {6}, "T": {8}, "U": {8}, "cross": {12}, "stair": {8, 10}}[g.Kind]
		if !slices.Contains(want, len(pg)) {
			t.Errorf("%s has %d vertices, want one of %v", g.Kind, len(pg), want)
		}
		for i := range pg {
			a, b := pg[i], pg[(i+1)%len(pg)]
			if a.X != b.X && a.Y != b.Y {
				t.Errorf("%s edge %v-%v is not axis-parallel", g.Kind, a, b)
			}
		}
		if pg.SignedArea() <= 0 {
			t.Errorf("%s is not counterclockwise", g.Kind)
		}
	}

	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, f := range files {
		ast, err := parser.ParseFile(fset, f, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range ast.Imports {
			if imp.Path.Value == strconv.Quote("maskfrac/internal/raster") {
				t.Errorf("%s imports the raster package", f)
			}
		}
	}
}

// TestBenchmarkJSONMatches checks that the metric names and units this
// program prints are the ones BENCHMARK.json declares.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program runs %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %s has no runner", w.Name)
		}
	}
	check := func(kind string, declared []struct{ Name, Unit string }, printed []struct{ name, unit string }) {
		if len(declared) != len(printed) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the program prints %d", kind, len(declared), len(printed))
		}
		units := map[string]string{}
		for _, m := range printed {
			units[m.name] = m.unit
		}
		for _, m := range declared {
			if u, ok := units[m.Name]; !ok || u != m.Unit {
				t.Errorf("%s: %s [%s] declared, printed with unit %q", kind, m.Name, m.Unit, u)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEndUnits)
	check("per_layer", spec.PerLayer, layerUnits)
}

// inputDigest hashes every input a seed generates — clip vertices, the
// replay library's placements and the manhattan tile — so two processes
// can compare their inputs byte for byte.
func inputDigest(seed int64) (string, error) {
	h := sha256.New()
	var buf [8]byte
	put := func(v float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	putPoly := func(pg geom.Polygon) {
		put(float64(len(pg)))
		for _, p := range pg {
			put(p.X)
			put(p.Y)
		}
	}
	for _, c := range ILTClips(seed) {
		putPoly(c.Target)
	}
	err := ReplayLibrary(seed).Walk(func(pl maskio.Placement) error {
		putPoly(pl.Polygon)
		return nil
	})
	if err != nil {
		return "", fmt.Errorf("walk replay library: %w", err)
	}
	for _, pg := range ManhattanTargets(ManhattanTile(seed)) {
		putPoly(pg)
	}
	return fmt.Sprintf("%x", h.Sum(nil)), nil
}

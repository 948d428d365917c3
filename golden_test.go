package maskfrac

import (
	"bytes"
	"encoding/json"
	"os"
	"runtime"
	"strings"
	"testing"
)

// goldenShotsPath holds the shot lists the solvers must keep
// producing: refactors of the evaluator, the L-shot matcher or the
// shared fixup passes are required to leave these byte-identical.
const goldenShotsPath = "testdata/golden_shots.json"

// goldenCase is one recorded solve.
type goldenCase struct {
	Name    string       `json:"name"`
	Method  Method       `json:"method"`
	Shots   [][4]float64 `json:"shots"`
	LPairs  [][2]int     `json:"l_pairs"`
	FailOn  int          `json:"fail_on"`
	FailOff int          `json:"fail_off"`
}

// goldenInstances lists the recorded instances: MBF on the Table 2
// clips the benchmark solves (ILT-1/2/3/6/7), MBF-L on the L-shape
// suite and one SRAF group, MP and PROTO-EDA on all ten Table 2 clips,
// GSC on ILT-6, and last the multi-region instances: four SRAF groups
// under MBF and MBF-L, and three Ls under MBF-L.
func goldenInstances() []struct {
	name    string
	method  Method
	targets []Polygon
} {
	type inst = struct {
		name    string
		method  Method
		targets []Polygon
	}
	var out []inst
	ilt := ILTSuite()
	for _, k := range []int{0, 1, 2, 5, 6} {
		out = append(out, inst{ilt[k].Name, MethodMBF, []Polygon{ilt[k].Target}})
	}
	for _, sh := range lShapeSuite() {
		out = append(out, inst{sh.Name, MethodMBFL, []Polygon{sh.Poly}})
	}
	out = append(out, inst{"SRAFCluster(3,2)", MethodMBFL, SRAFCluster(3, 2)})
	for _, m := range []Method{MethodMP, MethodProtoEDA} {
		for _, b := range ilt {
			out = append(out, inst{b.Name, m, []Polygon{b.Target}})
		}
	}
	out = append(out, inst{ilt[5].Name, MethodGSC, []Polygon{ilt[5].Target}})
	out = append(out,
		inst{"4 SRAF groups", MethodMBF, fourSRAFClusters()},
		inst{"4 SRAF groups", MethodMBFL, fourSRAFClusters()},
		inst{"3 Ls", MethodMBFL, threeLs()},
	)
	return out
}

// renderGolden solves every golden instance and renders the results as
// indented JSON, one case per instance.
func renderGolden(t *testing.T) []byte {
	t.Helper()
	var cases []goldenCase
	for _, in := range goldenInstances() {
		prob, err := NewMultiProblem(in.targets, DefaultParams())
		if err != nil {
			t.Fatalf("%s: %v", in.name, err)
		}
		res, err := prob.Fracture(in.method, nil)
		if err != nil {
			t.Fatalf("%s: %v", in.name, err)
		}
		c := goldenCase{Name: in.name, Method: in.method, LPairs: res.LPairs, FailOn: res.FailOn, FailOff: res.FailOff}
		for _, s := range res.Shots {
			c.Shots = append(c.Shots, [4]float64{s.X0, s.Y0, s.X1, s.Y1})
		}
		cases = append(cases, c)
	}
	out, err := json.MarshalIndent(cases, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(out, '\n')
}

// TestGoldenShotLists pins the exact output of every golden instance. JSON floats
// round-trip exactly, so a byte compare is a bit-for-bit compare of
// every shot coordinate.
func TestGoldenShotLists(t *testing.T) {
	if testing.Short() {
		t.Skip("solves 35 instances; skipped under -short")
	}
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden recorded on amd64; on %s the compiler fuses x*y+z into FMA, which changes rounding", runtime.GOARCH)
	}
	want, err := os.ReadFile(goldenShotsPath)
	if err != nil {
		t.Fatal(err)
	}
	got := renderGolden(t)
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < min(len(gl), len(wl)); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("%s line %d: got %q, want %q", goldenShotsPath, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("%s: got %d lines, want %d", goldenShotsPath, len(gl), len(wl))
}

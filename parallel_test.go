package maskfrac

import (
	"fmt"
	"testing"
)

// TestSingleRegionDeterminism pins the fan-outs inside one solve: MBF
// on the benchmark's Table 2 clips and MBF-L on the L-shape suite are
// single-region instances, whose refine scoring and cleanup trials run
// on the caller plus Workers−1 helpers, and every worker count must
// return the same shots, pairs and fail counts.
func TestSingleRegionDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("solves each instance three times; skipped under -short")
	}
	type instance struct {
		name   string
		method Method
		target Polygon
	}
	var cases []instance
	ilt := ILTSuite()
	for _, k := range []int{0, 1, 2, 5, 6} {
		cases = append(cases, instance{ilt[k].Name, MethodMBF, ilt[k].Target})
	}
	for _, sh := range lShapeSuite() {
		cases = append(cases, instance{"L-suite-" + sh.Name, MethodMBFL, sh.Poly})
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			prob, err := NewProblem(c.target, DefaultParams())
			if err != nil {
				t.Fatal(err)
			}
			var ref *Result
			for _, workers := range []int{1, 2, 8} {
				res, err := prob.Fracture(c.method, &Options{Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				if res.Regions != 1 {
					t.Fatalf("planned %d regions, want 1", res.Regions)
				}
				if ref == nil {
					ref = res
					continue
				}
				if fmt.Sprint(res.Shots) != fmt.Sprint(ref.Shots) {
					t.Errorf("workers=%d: shots %v != workers=1 shots %v", workers, res.Shots, ref.Shots)
				}
				if fmt.Sprint(res.LPairs) != fmt.Sprint(ref.LPairs) {
					t.Errorf("workers=%d: pairs %v != workers=1 pairs %v", workers, res.LPairs, ref.LPairs)
				}
				if res.FailOn != ref.FailOn || res.FailOff != ref.FailOff {
					t.Errorf("workers=%d: fail %d/%d != workers=1 fail %d/%d",
						workers, res.FailOn, res.FailOff, ref.FailOn, ref.FailOff)
				}
			}
		})
	}
}

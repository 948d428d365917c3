package maskfrac

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"maskfrac/internal/shapegen"
)

// Benchmark is one benchmark shape: a target polygon plus, for
// generated shapes, the construction-optimal shot count.
type Benchmark struct {
	Name    string
	Target  Polygon
	Optimal int // 0 when unknown (ILT shapes)
}

// ILTSuite returns the ten ILT-like clips reproducing the paper's
// Table 2 shape set (real ILT shapes are not distributable; see
// DESIGN.md for the substitution).
func ILTSuite() []Benchmark {
	shapes := shapegen.ILTSuite()
	out := make([]Benchmark, len(shapes))
	for i, s := range shapes {
		out[i] = Benchmark{Name: s.Name, Target: s.Target}
	}
	return out
}

// GeneratedSuite returns the ten known-optimal benchmark shapes
// reproducing the paper's Table 3 set: AGB-1..5 (dose-contour shapes)
// and RGB-1..5 (rectilinear unions), with the same per-shape optimal
// shot counts as the paper (3,16,17,7,3 and 5,7,5,9,6).
func GeneratedSuite(params Params) []Benchmark {
	var out []Benchmark
	for _, s := range shapegen.AGBSuite(params) {
		out = append(out, Benchmark{Name: s.Name, Target: s.Target, Optimal: s.Known})
	}
	for _, s := range shapegen.RGBSuite(params) {
		out = append(out, Benchmark{Name: s.Name, Target: s.Target, Optimal: s.Known})
	}
	return out
}

// Row is one benchmark × method measurement.
type Row struct {
	Shape   string
	Method  Method
	Shots   int
	FailOn  int
	FailOff int
	Runtime time.Duration
	Upper   int // shot-count upper bound (Table 2)
	Optimal int // known optimal (Table 3, 0 otherwise)
}

// RunSuite fractures every benchmark with every method and returns the
// rows plus upper bounds. Methods run with default options.
func RunSuite(benchmarks []Benchmark, params Params, methods []Method) ([]Row, error) {
	var rows []Row
	for _, b := range benchmarks {
		prob, err := NewProblem(b.Target, params)
		if err != nil {
			return nil, fmt.Errorf("maskfrac: %s: %w", b.Name, err)
		}
		ub := prob.Bounds()
		for _, m := range methods {
			res, err := prob.Fracture(m, nil)
			if err != nil {
				return nil, fmt.Errorf("maskfrac: %s/%s: %w", b.Name, m, err)
			}
			rows = append(rows, Row{
				Shape:   b.Name,
				Method:  m,
				Shots:   res.ShotCount(),
				FailOn:  res.FailOn,
				FailOff: res.FailOff,
				Runtime: res.Runtime,
				Upper:   ub,
				Optimal: b.Optimal,
			})
		}
	}
	return rows, nil
}

// NormalizedShotSum reproduces the paper's summary metric: the sum over
// shapes of shot count divided by the reference count (the upper bound
// for Table 2, the known optimal for Table 3). Shapes without the
// chosen reference are skipped.
func NormalizedShotSum(rows []Row, m Method, useOptimal bool) float64 {
	total := 0.0
	for _, r := range rows {
		if r.Method != m {
			continue
		}
		ref := r.Upper
		if useOptimal {
			ref = r.Optimal
		}
		if ref <= 0 {
			continue
		}
		total += float64(r.Shots) / float64(ref)
	}
	return total
}

// FormatTable renders rows as an aligned text table in the layout of
// the paper's Tables 2/3: one line per shape, one column group per
// method, plus the normalized-shot-count summary line.
func FormatTable(rows []Row, methods []Method, useOptimal bool) string {
	shapes := orderedShapes(rows)
	byKey := make(map[string]Row)
	for _, r := range rows {
		byKey[r.Shape+"|"+string(r.Method)] = r
	}
	var b strings.Builder
	// header
	if useOptimal {
		fmt.Fprintf(&b, "%-8s %8s", "Clip-ID", "Optimal")
	} else {
		fmt.Fprintf(&b, "%-8s %8s", "Clip-ID", "UB")
	}
	for _, m := range methods {
		fmt.Fprintf(&b, " | %-22s", m)
	}
	b.WriteString("\n")
	fmt.Fprintf(&b, "%-8s %8s", "", "")
	for range methods {
		fmt.Fprintf(&b, " | %6s %6s %8s", "shots", "fail", "time")
	}
	b.WriteString("\n")
	for _, shape := range shapes {
		first := byKey[shape+"|"+string(methods[0])]
		if useOptimal {
			fmt.Fprintf(&b, "%-8s %8d", shape, first.Optimal)
		} else {
			fmt.Fprintf(&b, "%-8s %8d", shape, first.Upper)
		}
		for _, m := range methods {
			r := byKey[shape+"|"+string(m)]
			fmt.Fprintf(&b, " | %6d %6d %7.2fs", r.Shots, r.FailOn+r.FailOff, r.Runtime.Seconds())
		}
		b.WriteString("\n")
	}
	// normalized summary
	if useOptimal {
		fmt.Fprintf(&b, "%-17s", "Sum norm. (opt)")
	} else {
		fmt.Fprintf(&b, "%-17s", "Sum norm. (UB)")
	}
	for _, m := range methods {
		fmt.Fprintf(&b, " | %22.2f", NormalizedShotSum(rows, m, useOptimal))
	}
	b.WriteString("\n")
	return b.String()
}

// orderedShapes returns the distinct shape names in first-seen order.
func orderedShapes(rows []Row) []string {
	seen := make(map[string]bool)
	var out []string
	for _, r := range rows {
		if !seen[r.Shape] {
			seen[r.Shape] = true
			out = append(out, r.Shape)
		}
	}
	return out
}

// TotalShots sums the shot counts of a method across all rows (the
// paper's secondary Table 2 comparison).
func TotalShots(rows []Row, m Method) int {
	total := 0
	for _, r := range rows {
		if r.Method == m {
			total += r.Shots
		}
	}
	return total
}

// MethodRuntimes returns each method's total runtime over the rows,
// slowest first.
func MethodRuntimes(rows []Row) []struct {
	Method  Method
	Runtime time.Duration
} {
	acc := make(map[Method]time.Duration)
	for _, r := range rows {
		acc[r.Method] += r.Runtime
	}
	out := make([]struct {
		Method  Method
		Runtime time.Duration
	}, 0, len(acc))
	for m, d := range acc {
		out = append(out, struct {
			Method  Method
			Runtime time.Duration
		}{m, d})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Runtime > out[j].Runtime })
	return out
}

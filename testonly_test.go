package maskfrac

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// testOnlyAllowed names the functions and methods under internal/ that
// only tests call and that stay anyway, each with its reason.
var testOnlyAllowed = map[string]string{
	"EdgeProfiles":     "ebeam: float64 reference the float32 strip kernels are tested against",
	"EdgeProfileExact": "ebeam: profile without tables, the reference of the tabulated one",
	"SetProfileCheck":  "ebeam: test hook that checks every float32 strip fill against the float64 reference",
	"IsClique":         "graphx: oracle of the clique-partition tests",
	"ValidColoring":    "graphx: oracle of the coloring tests",
	"HasEdge":          "graphx: accessor the graph tests read edges with",
	"Neighbors":        "graphx: accessor the graph tests read adjacency with",
	"SetCrossCheck":    "cover: test hook that re-derives the violation state and every score from scratch",
	"BoundaryDist":     "geom: distance oracle of cover's classification band-width test",
	"AppendPolygon":    "maskio: oracle for the cache-key hash",
	"MergePass":        "mbf: the paper's Fig 5 merge, benchmarked alone by BenchmarkFig5Merge",
	"Healthz":          "fracserve: client API, the readiness probe of a fracd node",
	"SolveShapes":      "fracserve: client API, /solve on a set of shapes",

	// only tests call these; each goes, with the tests that exercise
	// it alone, in a change of its own (ROADMAP: "No code that only
	// tests call")
	"MinSliver":         "partition: to delete with countSlivers, sweepVertical and their four tests",
	"RectDist":          "geom: to delete with TestRectDist",
	"Perimeter":         "geom: to delete with TestPolygonPerimeter",
	"RemoveCollinear":   "geom: to delete with TestRemoveCollinear",
	"WriteTimeCP":       "writecost: to delete with CostReductionTime and their three tests",
	"DollarSavingsTime": "writecost: to delete with WriteTimeCP",
}

// TestNoTestOnlyFuncs fails when a function or method declared in a
// non-test file under internal/ is named by no non-test file of the
// repository (perfbench/ included): code that only tests reach is
// either deleted or listed in testOnlyAllowed with a reason. The scan
// is syntactic, so a name counts as used wherever it appears as an
// identifier, whatever it resolves to.
func TestNoTestOnlyFuncs(t *testing.T) {
	fset := token.NewFileSet()
	used := make(map[string]bool)
	type decl struct{ name, pos string }
	var decls []decl
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		internal := strings.HasPrefix(filepath.ToSlash(path), "internal/")
		declared := make(map[*ast.Ident]bool)
		for _, dl := range f.Decls {
			fd, ok := dl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			declared[fd.Name] = true
			if internal && fd.Name.Name != "init" {
				decls = append(decls, decl{fd.Name.Name, fset.Position(fd.Pos()).String()})
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declared[id] {
				used[id.Name] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var unused []string
	for _, d := range decls {
		if used[d.name] {
			continue
		}
		if _, ok := testOnlyAllowed[d.name]; ok {
			continue
		}
		unused = append(unused, d.pos+": "+d.name)
	}
	sort.Strings(unused)
	for _, u := range unused {
		t.Errorf("%s has no caller outside tests: delete it, or list it in testOnlyAllowed with a reason", u)
	}
	for name := range testOnlyAllowed {
		if used[name] {
			t.Errorf("testOnlyAllowed lists %s, which non-test code uses: drop the entry", name)
		}
	}
}

package graphx

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func path(n int) *Graph {
	g := New(n)
	for i := 0; i+1 < n; i++ {
		g.AddEdge(i, i+1)
	}
	return g
}

func complete(n int) *Graph {
	g := New(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			g.AddEdge(i, j)
		}
	}
	return g
}

func cycle(n int) *Graph {
	g := path(n)
	g.AddEdge(n-1, 0)
	return g
}

func TestGraphBasics(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(1, 1) // self loop ignored
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Error("edge not symmetric")
	}
	if g.HasEdge(0, 2) {
		t.Error("phantom edge")
	}
	if g.Degree(1) != 2 || g.Degree(3) != 0 {
		t.Errorf("degrees = %d %d", g.Degree(1), g.Degree(3))
	}
	if g.EdgeCount() != 2 {
		t.Errorf("EdgeCount = %d", g.EdgeCount())
	}
	if n := g.Neighbors(1); len(n) != 2 || n[0] != 0 || n[1] != 2 {
		t.Errorf("Neighbors = %v", n)
	}
}

func TestInverse(t *testing.T) {
	g := path(4) // edges 01 12 23
	inv := g.Inverse()
	// inverse edges: 02 03 13
	if inv.EdgeCount() != 3 {
		t.Errorf("inverse edges = %d", inv.EdgeCount())
	}
	for _, e := range [][2]int{{0, 2}, {0, 3}, {1, 3}} {
		if !inv.HasEdge(e[0], e[1]) {
			t.Errorf("missing inverse edge %v", e)
		}
	}
	if inv.HasEdge(0, 1) {
		t.Error("original edge present in inverse")
	}
	// complement of complement is the original
	back := inv.Inverse()
	if back.EdgeCount() != g.EdgeCount() || !back.HasEdge(1, 2) {
		t.Error("double inverse differs")
	}
}

func TestGreedyColorPath(t *testing.T) {
	for _, order := range []Order{Sequential, WelshPowell, SmallestLast} {
		g := path(6)
		colors, n := g.GreedyColor(order)
		if !g.ValidColoring(colors) {
			t.Errorf("order %v: invalid coloring", order)
		}
		if n != 2 {
			t.Errorf("order %v: path colored with %d colors", order, n)
		}
	}
}

func TestGreedyColorComplete(t *testing.T) {
	g := complete(5)
	colors, n := g.GreedyColor(Sequential)
	if n != 5 || !g.ValidColoring(colors) {
		t.Errorf("K5: %d colors", n)
	}
}

func TestGreedyColorOddCycle(t *testing.T) {
	g := cycle(5)
	colors, n := g.GreedyColor(SmallestLast)
	if !g.ValidColoring(colors) {
		t.Error("invalid coloring")
	}
	if n != 3 {
		t.Errorf("C5 colored with %d colors, want 3", n)
	}
}

func TestGreedyColorEmpty(t *testing.T) {
	g := New(4)
	colors, n := g.GreedyColor(Sequential)
	if n != 1 {
		t.Errorf("edgeless graph used %d colors", n)
	}
	for _, c := range colors {
		if c != 0 {
			t.Error("non-zero color in edgeless graph")
		}
	}
	g0 := New(0)
	if _, n := g0.GreedyColor(WelshPowell); n != 0 {
		t.Errorf("empty graph used %d colors", n)
	}
}

func TestColorClasses(t *testing.T) {
	g := cycle(4)
	colors, n := g.GreedyColor(Sequential)
	classes := ColorClasses(colors, n)
	total := 0
	for c, vs := range classes {
		total += len(vs)
		for _, v := range vs {
			if colors[v] != c {
				t.Errorf("vertex %d in wrong class", v)
			}
		}
	}
	if total != 4 {
		t.Errorf("classes cover %d vertices", total)
	}
}

func TestColorClassesAreCliquesInInverse(t *testing.T) {
	// the paper's reduction: color classes of Ginv are cliques of G
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		n := 3 + rng.Intn(12)
		g := New(n)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Float64() < 0.4 {
					g.AddEdge(i, j)
				}
			}
		}
		inv := g.Inverse()
		colors, nc := inv.GreedyColor(Sequential)
		if !inv.ValidColoring(colors) {
			t.Fatal("invalid coloring")
		}
		for _, class := range ColorClasses(colors, nc) {
			if !g.IsClique(class) {
				t.Fatalf("color class %v is not a clique of G", class)
			}
		}
	}
}

func TestIsClique(t *testing.T) {
	g := complete(4)
	if !g.IsClique([]int{0, 1, 2, 3}) {
		t.Error("K4 not a clique")
	}
	g2 := path(4)
	if g2.IsClique([]int{0, 1, 2}) {
		t.Error("path not a clique")
	}
	if !g2.IsClique([]int{2}) || !g2.IsClique(nil) {
		t.Error("trivial cliques rejected")
	}
}

func TestGreedyIndependentSet(t *testing.T) {
	g := path(5) // independent set {0,2,4}
	set := g.GreedyIndependentSet()
	if len(set) != 3 {
		t.Errorf("independent set size = %d, want 3", len(set))
	}
	for i := 0; i < len(set); i++ {
		for j := i + 1; j < len(set); j++ {
			if g.HasEdge(set[i], set[j]) {
				t.Errorf("set not independent: %d-%d", set[i], set[j])
			}
		}
	}
	if got := complete(6).GreedyIndependentSet(); len(got) != 1 {
		t.Errorf("K6 independent set = %v", got)
	}
}

func TestIndependentSetQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(15)
		g := New(n)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Float64() < 0.3 {
					g.AddEdge(i, j)
				}
			}
		}
		set := g.GreedyIndependentSet()
		if len(set) == 0 {
			return false
		}
		for i := 0; i < len(set); i++ {
			for j := i + 1; j < len(set); j++ {
				if g.HasEdge(set[i], set[j]) {
					return false
				}
			}
		}
		// maximality: every vertex outside is adjacent to the set
		inSet := make(map[int]bool)
		for _, v := range set {
			inSet[v] = true
		}
		for v := 0; v < n; v++ {
			if inSet[v] {
				continue
			}
			adj := false
			for _, u := range set {
				if g.HasEdge(u, v) {
					adj = true
					break
				}
			}
			if !adj {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestColoringUpperBoundQuick(t *testing.T) {
	// greedy coloring uses at most maxDegree+1 colors
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(20)
		g := New(n)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Float64() < 0.5 {
					g.AddEdge(i, j)
				}
			}
		}
		maxDeg := 0
		for v := 0; v < n; v++ {
			if d := g.Degree(v); d > maxDeg {
				maxDeg = d
			}
		}
		for _, order := range []Order{Sequential, WelshPowell, SmallestLast} {
			colors, nc := g.GreedyColor(order)
			if !g.ValidColoring(colors) || nc > maxDeg+1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMaxMatchingSimple(t *testing.T) {
	// perfect matching on 3x3
	b := NewBipartite(3, 3)
	b.AddEdge(0, 0)
	b.AddEdge(0, 1)
	b.AddEdge(1, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 2)
	_, _, size := b.MaxMatching()
	if size != 3 {
		t.Errorf("matching = %d, want 3", size)
	}
}

func TestMaxMatchingStar(t *testing.T) {
	// all left vertices share one right vertex
	b := NewBipartite(4, 1)
	for l := 0; l < 4; l++ {
		b.AddEdge(l, 0)
	}
	matchL, matchR, size := b.MaxMatching()
	if size != 1 {
		t.Errorf("matching = %d, want 1", size)
	}
	matched := 0
	for _, r := range matchL {
		if r != -1 {
			matched++
		}
	}
	if matched != 1 || matchR[0] == -1 {
		t.Error("match arrays inconsistent")
	}
}

func TestMatchEdges(t *testing.T) {
	// a path 0-1-2-3 plus a triangle 4-5-6 and an isolated vertex 7:
	// the path matches perfectly, the triangle loses its odd chord and
	// still matches one edge
	edges := [][2]int{{0, 1}, {1, 2}, {2, 3}, {4, 5}, {4, 6}, {5, 6}}
	matched, dropped := MatchEdges(8, edges)
	if dropped != 1 {
		t.Errorf("dropped = %d, want 1 odd-cycle chord", dropped)
	}
	if len(matched) != 3 {
		t.Fatalf("matched %v, want 3 edges", matched)
	}
	used := make(map[int]bool)
	for k, m := range matched {
		e := edges[m]
		if used[e[0]] || used[e[1]] {
			t.Fatalf("matched edges share a vertex: %v", matched)
		}
		used[e[0]], used[e[1]] = true, true
		if k > 0 && edges[matched[k-1]][0] > e[0] {
			t.Errorf("matched %v not sorted by endpoints", matched)
		}
	}
	if m, d := MatchEdges(3, nil); len(m) != 0 || d != 0 {
		t.Errorf("no edges: matched %v, dropped %d", m, d)
	}
}

func TestMaxMatchingEmpty(t *testing.T) {
	b := NewBipartite(3, 3)
	if _, _, size := b.MaxMatching(); size != 0 {
		t.Errorf("empty graph matching = %d", size)
	}
}

func TestMatchingQuickConsistency(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nl, nr := 1+rng.Intn(8), 1+rng.Intn(8)
		b := NewBipartite(nl, nr)
		edges := make(map[[2]int]bool)
		for l := 0; l < nl; l++ {
			for r := 0; r < nr; r++ {
				if rng.Float64() < 0.4 {
					b.AddEdge(l, r)
					edges[[2]int{l, r}] = true
				}
			}
		}
		matchL, matchR, size := b.MaxMatching()
		// consistency of the two arrays and edge validity
		cnt := 0
		for l, r := range matchL {
			if r == -1 {
				continue
			}
			cnt++
			if matchR[r] != l || !edges[[2]int{l, r}] {
				return false
			}
		}
		if cnt != size {
			return false
		}
		// compare against brute-force maximum via augmenting paths on a
		// simple Hungarian-style search
		want := bruteMatching(nl, nr, edges)
		return size == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// bruteMatching computes maximum bipartite matching with simple
// augmenting-path search (Kuhn's algorithm) as a test oracle.
func bruteMatching(nl, nr int, edges map[[2]int]bool) int {
	matchR := make([]int, nr)
	for i := range matchR {
		matchR[i] = -1
	}
	var try func(l int, seen []bool) bool
	try = func(l int, seen []bool) bool {
		for r := 0; r < nr; r++ {
			if !edges[[2]int{l, r}] || seen[r] {
				continue
			}
			seen[r] = true
			if matchR[r] == -1 || try(matchR[r], seen) {
				matchR[r] = l
				return true
			}
		}
		return false
	}
	size := 0
	for l := 0; l < nl; l++ {
		if try(l, make([]bool, nr)) {
			size++
		}
	}
	return size
}

func TestMaxIndependentSetKonig(t *testing.T) {
	// C4 as bipartite: left {0,1}, right {0,1}, edges (0,0),(0,1),(1,0),(1,1)? No:
	// use path l0-r0-l1-r1: edges (0,0),(1,0),(1,1)
	b := NewBipartite(2, 2)
	b.AddEdge(0, 0)
	b.AddEdge(1, 0)
	b.AddEdge(1, 1)
	left, right := b.MaxIndependentSet()
	// max matching = 2, so MIS = 4-2 = 2
	if len(left)+len(right) != 2 {
		t.Errorf("MIS size = %d, want 2 (left %v right %v)", len(left)+len(right), left, right)
	}
	// independence check
	for _, l := range left {
		for _, r := range right {
			for _, rr := range b.adj[l] {
				if rr == r {
					t.Errorf("MIS contains edge (%d,%d)", l, r)
				}
			}
		}
	}
}

func TestMaxIndependentSetQuick(t *testing.T) {
	// |MIS| = NL + NR - |max matching| (König), and the set is independent
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nl, nr := 1+rng.Intn(7), 1+rng.Intn(7)
		b := NewBipartite(nl, nr)
		adj := make(map[[2]int]bool)
		for l := 0; l < nl; l++ {
			for r := 0; r < nr; r++ {
				if rng.Float64() < 0.4 {
					b.AddEdge(l, r)
					adj[[2]int{l, r}] = true
				}
			}
		}
		_, _, size := b.MaxMatching()
		left, right := b.MaxIndependentSet()
		if len(left)+len(right) != nl+nr-size {
			return false
		}
		for _, l := range left {
			for _, r := range right {
				if adj[[2]int{l, r}] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

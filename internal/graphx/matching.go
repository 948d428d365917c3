package graphx

import "sort"

// Bipartite maximum matching (Hopcroft–Karp) and König minimum vertex
// cover / maximum independent set. The optimal minimum rectangle
// partition of a rectilinear polygon cuts along a maximum independent
// set of the "chord intersection" bipartite graph (horizontal chords vs
// vertical chords between concave corners); see fracture/partition.

// Bipartite is a bipartite graph with nl left and nr right vertices.
type Bipartite struct {
	NL, NR int
	adj    [][]int // adj[l] = right neighbors of left vertex l
}

// NewBipartite returns an empty bipartite graph.
func NewBipartite(nl, nr int) *Bipartite {
	return &Bipartite{NL: nl, NR: nr, adj: make([][]int, nl)}
}

// AddEdge inserts an edge between left vertex l and right vertex r.
func (b *Bipartite) AddEdge(l, r int) {
	b.adj[l] = append(b.adj[l], r)
}

const unmatched = -1

// MaxMatching returns a maximum matching via Hopcroft–Karp:
// matchL[l] = matched right vertex or -1, matchR[r] symmetric, and the
// matching size.
func (b *Bipartite) MaxMatching() (matchL, matchR []int, size int) {
	matchL = make([]int, b.NL)
	matchR = make([]int, b.NR)
	for i := range matchL {
		matchL[i] = unmatched
	}
	for i := range matchR {
		matchR[i] = unmatched
	}
	dist := make([]int, b.NL)
	queue := make([]int, 0, b.NL)

	bfs := func() bool {
		queue = queue[:0]
		const inf = int(^uint(0) >> 1)
		found := false
		for l := 0; l < b.NL; l++ {
			if matchL[l] == unmatched {
				dist[l] = 0
				queue = append(queue, l)
			} else {
				dist[l] = inf
			}
		}
		for qi := 0; qi < len(queue); qi++ {
			l := queue[qi]
			for _, r := range b.adj[l] {
				nl := matchR[r]
				if nl == unmatched {
					found = true
				} else if dist[nl] == inf {
					dist[nl] = dist[l] + 1
					queue = append(queue, nl)
				}
			}
		}
		return found
	}
	var dfs func(l int) bool
	dfs = func(l int) bool {
		for _, r := range b.adj[l] {
			nl := matchR[r]
			if nl == unmatched || (dist[nl] == dist[l]+1 && dfs(nl)) {
				matchL[l] = r
				matchR[r] = l
				return true
			}
		}
		const inf = int(^uint(0) >> 1)
		dist[l] = inf
		return false
	}
	for bfs() {
		for l := 0; l < b.NL; l++ {
			if matchL[l] == unmatched && dfs(l) {
				size++
			}
		}
	}
	return matchL, matchR, size
}

// MaxIndependentSet returns a maximum independent set of the bipartite
// graph via König's theorem: complement of the minimum vertex cover
// derived from a maximum matching. Returns index sets for the left and
// right sides.
func (b *Bipartite) MaxIndependentSet() (left, right []int) {
	matchL, matchR, _ := b.MaxMatching()
	// König: alternate BFS from unmatched left vertices.
	visitL := make([]bool, b.NL)
	visitR := make([]bool, b.NR)
	var stack []int
	for l := 0; l < b.NL; l++ {
		if matchL[l] == unmatched {
			visitL[l] = true
			stack = append(stack, l)
		}
	}
	for len(stack) > 0 {
		l := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, r := range b.adj[l] {
			if visitR[r] {
				continue
			}
			visitR[r] = true
			if nl := matchR[r]; nl != unmatched && !visitL[nl] {
				visitL[nl] = true
				stack = append(stack, nl)
			}
		}
	}
	// Min vertex cover = unvisited left + visited right;
	// independent set = visited left + unvisited right.
	for l := 0; l < b.NL; l++ {
		if visitL[l] {
			left = append(left, l)
		}
	}
	for r := 0; r < b.NR; r++ {
		if !visitR[r] {
			right = append(right, r)
		}
	}
	return left, right
}

// MatchEdges selects a maximum set of vertex-disjoint edges of the
// undirected graph on n vertices with the given edge list — exact when
// the graph is bipartite, as L-compatibility graphs of rectangle covers
// nearly always are. Every connected component is two-colored by BFS
// (edges inside a color class, the chords of odd cycles, are dropped
// and counted) and Hopcroft–Karp maximum matching runs on the resulting
// bipartition. Deterministic: adjacency, coloring and edge insertion
// follow ascending vertex and edge-list order. matched holds indices
// into edges, sorted by their endpoints.
func MatchEdges(n int, edges [][2]int) (matched []int, dropped int) {
	adj := make([][]int, n)
	for _, e := range edges {
		adj[e[0]] = append(adj[e[0]], e[1])
		adj[e[1]] = append(adj[e[1]], e[0])
	}
	color := make([]int, n)
	for i := range color {
		color[i] = -1
	}
	var queue []int
	for s := 0; s < n; s++ {
		if color[s] != -1 || len(adj[s]) == 0 {
			continue
		}
		color[s] = 0
		queue = append(queue[:0], s)
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, v := range adj[u] {
				if color[v] == -1 {
					color[v] = 1 - color[u]
					queue = append(queue, v)
				}
			}
		}
	}
	side := make([]int, n) // vertex -> node id on its color's side
	nl, nr := 0, 0
	for v := 0; v < n; v++ {
		switch color[v] {
		case 0:
			side[v] = nl
			nl++
		case 1:
			side[v] = nr
			nr++
		}
	}
	bg := NewBipartite(nl, nr)
	edgeOf := make(map[[2]int]int, len(edges))
	for k, e := range edges {
		u, v := e[0], e[1]
		if color[u] == color[v] { // an odd-cycle chord
			dropped++
			continue
		}
		if color[u] == 1 {
			u, v = v, u
		}
		bg.AddEdge(side[u], side[v])
		edgeOf[[2]int{side[u], side[v]}] = k
	}
	matchL, _, _ := bg.MaxMatching()
	for l, r := range matchL {
		if r >= 0 {
			matched = append(matched, edgeOf[[2]int{l, r}])
		}
	}
	sort.Slice(matched, func(a, b int) bool {
		ea, eb := edges[matched[a]], edges[matched[b]]
		if ea[0] != eb[0] {
			return ea[0] < eb[0]
		}
		return ea[1] < eb[1]
	})
	return matched, dropped
}

// Package graphx provides the graph algorithms used by mask fracturing:
// greedy vertex coloring (the paper solves clique partition on the shot
// corner compatibility graph by coloring its inverse graph, §3) and
// bipartite maximum matching with König vertex covers (used by the
// optimal minimum rectangle partition of rectilinear polygons).
package graphx

import "sort"

// Graph is a simple undirected graph on vertices 0..N-1 stored as
// adjacency sets.
type Graph struct {
	N   int
	adj []map[int]bool
}

// New returns an empty graph with n vertices.
func New(n int) *Graph {
	g := &Graph{N: n, adj: make([]map[int]bool, n)}
	for i := range g.adj {
		g.adj[i] = make(map[int]bool)
	}
	return g
}

// AddEdge inserts the undirected edge {u, v}. Self-loops are ignored.
func (g *Graph) AddEdge(u, v int) {
	if u == v {
		return
	}
	g.adj[u][v] = true
	g.adj[v][u] = true
}

// HasEdge reports whether {u, v} is an edge.
func (g *Graph) HasEdge(u, v int) bool { return g.adj[u][v] }

// Degree returns the degree of vertex u.
func (g *Graph) Degree(u int) int { return len(g.adj[u]) }

// EdgeCount returns the number of undirected edges.
func (g *Graph) EdgeCount() int {
	total := 0
	for _, a := range g.adj {
		total += len(a)
	}
	return total / 2
}

// Neighbors returns the sorted neighbor list of u.
func (g *Graph) Neighbors(u int) []int {
	out := make([]int, 0, len(g.adj[u]))
	for v := range g.adj[u] {
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}

// Inverse returns the complement graph: an edge between every
// non-adjacent distinct pair of vertices (paper §3: clique partition of
// G equals coloring of G's inverse).
func (g *Graph) Inverse() *Graph {
	inv := New(g.N)
	for u := 0; u < g.N; u++ {
		for v := u + 1; v < g.N; v++ {
			if !g.adj[u][v] {
				inv.AddEdge(u, v)
			}
		}
	}
	return inv
}

// Order selects the vertex ordering used by greedy coloring.
type Order int

const (
	// Sequential colors vertices in index order — the "simple
	// sequential coloring heuristic" the paper uses.
	Sequential Order = iota
	// WelshPowell colors vertices in order of decreasing degree.
	WelshPowell
	// SmallestLast uses the Matula–Beck smallest-last ordering.
	SmallestLast
)

// GreedyColor colors g greedily in the given vertex order, assigning
// each vertex the smallest color unused among its neighbors. Returns
// the color of every vertex and the number of colors used.
func (g *Graph) GreedyColor(order Order) (colors []int, n int) {
	idx := g.ordering(order)
	colors = make([]int, g.N)
	for i := range colors {
		colors[i] = -1
	}
	maxColor := -1
	taken := make([]int, g.N+1) // taken[c] == stamp when color c blocked
	stamp := 0
	for _, u := range idx {
		stamp++
		for v := range g.adj[u] {
			if c := colors[v]; c >= 0 {
				taken[c] = stamp
			}
		}
		c := 0
		for taken[c] == stamp {
			c++
		}
		colors[u] = c
		if c > maxColor {
			maxColor = c
		}
	}
	return colors, maxColor + 1
}

// ordering returns the vertex visit order for the given strategy.
func (g *Graph) ordering(order Order) []int {
	idx := make([]int, g.N)
	for i := range idx {
		idx[i] = i
	}
	switch order {
	case Sequential:
		return idx
	case WelshPowell:
		sort.SliceStable(idx, func(a, b int) bool {
			return g.Degree(idx[a]) > g.Degree(idx[b])
		})
		return idx
	case SmallestLast:
		return g.smallestLast()
	}
	return idx
}

// smallestLast computes the Matula–Beck ordering: repeatedly remove a
// minimum-degree vertex; color in reverse removal order.
func (g *Graph) smallestLast() []int {
	deg := make([]int, g.N)
	removed := make([]bool, g.N)
	for i := range deg {
		deg[i] = g.Degree(i)
	}
	order := make([]int, 0, g.N)
	for len(order) < g.N {
		best, bestDeg := -1, g.N+1
		for v := 0; v < g.N; v++ {
			if !removed[v] && deg[v] < bestDeg {
				best, bestDeg = v, deg[v]
			}
		}
		removed[best] = true
		order = append(order, best)
		for u := range g.adj[best] {
			if !removed[u] {
				deg[u]--
			}
		}
	}
	// reverse: smallest-degree vertices colored last
	for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
		order[i], order[j] = order[j], order[i]
	}
	return order
}

// ColorClasses groups vertex indices by color. colors must come from
// GreedyColor with n colors.
func ColorClasses(colors []int, n int) [][]int {
	classes := make([][]int, n)
	for v, c := range colors {
		classes[c] = append(classes[c], v)
	}
	return classes
}

// ValidColoring reports whether no edge of g joins two vertices of the
// same color.
func (g *Graph) ValidColoring(colors []int) bool {
	for u := 0; u < g.N; u++ {
		for v := range g.adj[u] {
			if colors[u] == colors[v] {
				return false
			}
		}
	}
	return true
}

// IsClique reports whether the given vertices are pairwise adjacent in g.
func (g *Graph) IsClique(vs []int) bool {
	for i := 0; i < len(vs); i++ {
		for j := i + 1; j < len(vs); j++ {
			if !g.adj[vs[i]][vs[j]] {
				return false
			}
		}
	}
	return true
}

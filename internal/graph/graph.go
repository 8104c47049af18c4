// Package graph implements the undirected-graph substrate used by the
// generalized Fibonacci cube library: compact adjacency-list graphs, breadth
// first search, parallel all-pairs distance computations, and the structural
// metrics reported in the paper's evaluation (order, size, degrees, diameter,
// radius, average distance, number of squares, bipartiteness).
//
// Vertices are integers 0..n-1; callers keep their own vertex labelling
// (for Q_d(f), the sorted list of f-free words).
package graph

import (
	"fmt"
	"slices"
	"sort"
)

// Graph is a finite simple undirected graph with adjacency lists sorted in
// increasing order. Build one with a Builder. The adjacency lists are views
// into one flat arena, so a graph costs O(1) allocations beyond its size.
type Graph struct {
	adj [][]int32
	m   int
}

// Builder accumulates edges and produces an immutable Graph.
type Builder struct {
	n     int
	edges []uint64 // packed uint64(u)<<32 | v with u < v
}

// NewBuilder returns a builder for a graph on n vertices.
func NewBuilder(n int) *Builder {
	if n < 0 {
		panic(fmt.Sprintf("graph: negative vertex count %d", n))
	}
	return &Builder{n: n}
}

// AddEdge records the undirected edge {u, v}. Self-loops are rejected;
// duplicate edges are deduplicated at Build time.
func (b *Builder) AddEdge(u, v int) {
	if u == v {
		panic(fmt.Sprintf("graph: self-loop at %d", u))
	}
	if u < 0 || v < 0 || u >= b.n || v >= b.n {
		panic(fmt.Sprintf("graph: edge {%d,%d} out of range [0,%d)", u, v, b.n))
	}
	if u > v {
		u, v = v, u
	}
	b.edges = append(b.edges, uint64(u)<<32|uint64(v))
}

// Build produces the immutable graph: adjacency lists are carved out of a
// single flat arena (CSR layout) so the only allocations are the offsets,
// the arena and the header slice.
func (b *Builder) Build() *Graph {
	slices.Sort(b.edges)
	off := make([]int32, b.n+1)
	m := 0
	for i, e := range b.edges {
		if i > 0 && e == b.edges[i-1] {
			continue
		}
		off[int32(e>>32)+1]++
		off[int32(e)+1]++
		m++
	}
	for v := 0; v < b.n; v++ {
		off[v+1] += off[v]
	}
	flat := make([]int32, 2*m)
	adj := make([][]int32, b.n)
	for v := 0; v < b.n; v++ {
		adj[v] = flat[off[v]:off[v]:off[v+1]]
	}
	for i, e := range b.edges {
		if i > 0 && e == b.edges[i-1] {
			continue
		}
		u, v := int32(e>>32), int32(e)
		adj[u] = append(adj[u], v)
		adj[v] = append(adj[v], u)
	}
	// Edges are sorted by (u, v), so adj[u] entries with v > u arrive in
	// order, but the mirrored v -> u entries interleave; sort each list.
	for v := range adj {
		slices.Sort(adj[v])
	}
	return &Graph{adj: adj, m: m}
}

// N returns the number of vertices.
func (g *Graph) N() int { return len(g.adj) }

// M returns the number of edges.
func (g *Graph) M() int { return g.m }

// Neighbors returns the sorted adjacency list of v. The returned slice is
// shared with the graph and must not be modified.
func (g *Graph) Neighbors(v int) []int32 { return g.adj[v] }

// Degree returns the degree of v.
func (g *Graph) Degree(v int) int { return len(g.adj[v]) }

// HasEdge reports whether {u,v} is an edge, by binary search.
func (g *Graph) HasEdge(u, v int) bool {
	a := g.adj[u]
	i := sort.Search(len(a), func(i int) bool { return a[i] >= int32(v) })
	return i < len(a) && a[i] == int32(v)
}

// Edges calls fn once for every edge {u,v} with u < v.
func (g *Graph) Edges(fn func(u, v int)) {
	for u := range g.adj {
		for _, v := range g.adj[u] {
			if int32(u) < v {
				fn(u, int(v))
			}
		}
	}
}

// EdgeList returns all edges {u,v} with u < v in lexicographic order.
func (g *Graph) EdgeList() [][2]int32 {
	out := make([][2]int32, 0, g.m)
	g.Edges(func(u, v int) { out = append(out, [2]int32{int32(u), int32(v)}) })
	return out
}

// MaxDegree returns the maximum vertex degree (0 for the empty graph).
func (g *Graph) MaxDegree() int {
	best := 0
	for v := range g.adj {
		if d := len(g.adj[v]); d > best {
			best = d
		}
	}
	return best
}

// MinDegree returns the minimum vertex degree (0 for the empty graph).
func (g *Graph) MinDegree() int {
	if len(g.adj) == 0 {
		return 0
	}
	best := len(g.adj[0])
	for v := range g.adj {
		if d := len(g.adj[v]); d < best {
			best = d
		}
	}
	return best
}

// DegreeSequence returns the sorted (descending) degree sequence; a cheap
// isomorphism invariant used by the Lemma 2.2/2.3 tests.
func (g *Graph) DegreeSequence() []int {
	out := make([]int, g.N())
	for v := range g.adj {
		out[v] = len(g.adj[v])
	}
	sort.Sort(sort.Reverse(sort.IntSlice(out)))
	return out
}

// Subgraph returns the induced subgraph on the given vertex set, together
// with the mapping from new vertex ids to old ones. Used by fault-injection
// experiments.
func (g *Graph) Subgraph(keep []int) (*Graph, []int) {
	idx := make(map[int]int, len(keep))
	old := make([]int, len(keep))
	for i, v := range keep {
		idx[v] = i
		old[i] = v
	}
	b := NewBuilder(len(keep))
	for i, v := range keep {
		for _, w := range g.adj[v] {
			if j, ok := idx[int(w)]; ok && i < j {
				b.AddEdge(i, j)
			}
		}
	}
	return b.Build(), old
}

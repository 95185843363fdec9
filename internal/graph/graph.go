// Package graph implements the communication graphs of the paper's model
// (Section 2): simple connected undirected graphs g = (V, E) whose vertices
// are the processes and whose edges are the pairs of processes that read
// each other's state.
//
// Besides construction and adjacency queries, the package computes the
// topology constants the protocols need: eccentricities, the diameter
// diam(g) (SSME's clock size and privilege spacing) and single-source
// distances, in O(n) memory, and the constants hole(g) and cyclo(g)
// governing the parameters of the underlying asynchronous unison of
// Boulinier, Petit and Villain (see internal/unison). hole(g) is computed
// exactly by exhaustive search on small graphs and bounded by n otherwise,
// which is always safe because SSME instantiates α = n ≥ hole(g) − 2 and
// K > n ≥ cyclo(g).
package graph

import (
	"errors"
	"fmt"
	"sort"
)

// Graph is an immutable simple connected undirected graph. Vertices are the
// integers 0..N()-1, which double as the process identities required by
// SSME (the paper assumes ID = {0, …, n−1}).
//
// The zero value is not usable; build graphs with New or a generator.
type Graph struct {
	name string
	adj  [][]int
	m    int

	// Lazily computed distance metrics (see metrics.go). A Graph is
	// logically immutable, so they are memoized on first access, safely
	// under the concurrent engines of the parallel experiment harness.
	met metricCache

	// Memoized compressed-sparse-row adjacency view (see csr.go).
	csrc csrCache
}

// New builds a graph with n vertices from an edge list. It rejects
// out-of-range endpoints, self-loops, duplicate edges, empty graphs and
// disconnected graphs (the paper's model assumes a connected system: every
// pair of processes must have a finite distance).
func New(name string, n int, edges [][2]int) (*Graph, error) {
	if n <= 0 {
		return nil, errors.New("graph: need at least one vertex")
	}
	adj := make([][]int, n)
	seen := make(map[[2]int]bool, len(edges))
	for _, e := range edges {
		u, v := e[0], e[1]
		if u < 0 || u >= n || v < 0 || v >= n {
			return nil, fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", u, v, n)
		}
		if u == v {
			return nil, fmt.Errorf("graph: self-loop at vertex %d", u)
		}
		key := [2]int{min(u, v), max(u, v)}
		if seen[key] {
			return nil, fmt.Errorf("graph: duplicate edge (%d,%d)", u, v)
		}
		seen[key] = true
		adj[u] = append(adj[u], v)
		adj[v] = append(adj[v], u)
	}
	for _, ns := range adj {
		sort.Ints(ns)
	}
	g := &Graph{name: name, adj: adj, m: len(seen)}
	if !g.connected() {
		return nil, errors.New("graph: not connected")
	}
	return g, nil
}

// MustNew is New for programmatically correct inputs (generators, tests);
// it panics on error.
func MustNew(name string, n int, edges [][2]int) *Graph {
	g, err := New(name, n, edges)
	if err != nil {
		panic(err)
	}
	return g
}

// Name returns the human-readable name given at construction.
func (g *Graph) Name() string { return g.name }

// N returns the number of vertices (the paper's n = |V|).
func (g *Graph) N() int { return len(g.adj) }

// M returns the number of edges (the paper's m = |E|).
func (g *Graph) M() int { return g.m }

// Degree returns the number of neighbors of v.
func (g *Graph) Degree(v int) int { return len(g.adj[v]) }

// Neighbors returns the sorted neighbor list of v. The returned slice is
// shared with the graph's internal storage and must be treated as
// read-only; this avoids an allocation in the guard-evaluation hot path.
func (g *Graph) Neighbors(v int) []int { return g.adj[v] }

// Adjacent reports whether u and v share an edge.
func (g *Graph) Adjacent(u, v int) bool {
	ns := g.adj[u]
	i := sort.SearchInts(ns, v)
	return i < len(ns) && ns[i] == v
}

// Edges returns a fresh list of all edges with u < v, sorted
// lexicographically.
func (g *Graph) Edges() [][2]int {
	out := make([][2]int, 0, g.m)
	for u, ns := range g.adj {
		for _, v := range ns {
			if u < v {
				out = append(out, [2]int{u, v})
			}
		}
	}
	return out
}

func (g *Graph) connected() bool {
	seen := make([]bool, g.N())
	queue := []int{0}
	seen[0] = true
	count := 1
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range g.adj[u] {
			if !seen[v] {
				seen[v] = true
				count++
				queue = append(queue, v)
			}
		}
	}
	return count == g.N()
}

// String summarizes the graph for logs: "ring-8 (n=8 m=8 diam=4)".
func (g *Graph) String() string {
	return fmt.Sprintf("%s (n=%d m=%d diam=%d)", g.name, g.N(), g.M(), g.Diameter())
}

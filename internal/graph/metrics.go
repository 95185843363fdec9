package graph

// This file computes the distance-based metrics of Section 2:
// dist(g, u, v), eccentricities and diam(g). Nothing here is quadratic in
// memory. Eccentricities are computed once, by structure: ⌊n/2⌋ everywhere
// on a cycle, two sweeps from a diametral pair on a tree, one BFS per
// source otherwise, each into the same reused buffer. Distances are
// single-source int32 rows, built by one BFS on first query and memoized
// per source — only a handful of sources are ever queried (bfstree's root,
// the island centres of internal/core, Peripheral's endpoint), so a
// 10⁵-vertex ring costs O(n) memory where an all-pairs matrix would need
// tens of gigabytes.

import (
	"sync"
	"sync/atomic"
)

// metricCache holds the memoized metrics of a Graph. ecc, diam and the
// rows table are published once behind once; each row is published
// independently through its atomic pointer, so concurrent engines of the
// parallel harness may query any source at any time.
type metricCache struct {
	once sync.Once
	ecc  []int
	diam int
	rows []atomic.Pointer[[]int32]
}

func (g *Graph) ensureMetrics() {
	g.met.once.Do(g.computeMetrics)
}

func (g *Graph) computeMetrics() {
	n := g.N()
	var ecc []int
	switch {
	case g.IsCycleGraph():
		ecc = make([]int, n)
		for v := range ecc {
			ecc[v] = n / 2
		}
	case g.IsTree():
		ecc = g.treeEccentricities()
	default:
		ecc = g.sweepEccentricities()
	}
	diam := 0
	for _, e := range ecc {
		diam = max(diam, e)
	}
	g.met.ecc, g.met.diam = ecc, diam
	g.met.rows = make([]atomic.Pointer[[]int32], n)
}

// bfs fills dist (length N()) with the distances from src, using queue
// (capacity N()) as scratch, and returns the last vertex dequeued — one at
// maximal distance from src.
func (g *Graph) bfs(src int, dist, queue []int32) int {
	c := g.CSR()
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue = append(queue[:0], int32(src))
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		du := dist[u] + 1
		for _, v := range c.Row(int(u)) {
			if dist[v] < 0 {
				dist[v] = du
				queue = append(queue, v)
			}
		}
	}
	return int(queue[len(queue)-1])
}

// treeEccentricities uses the tree identity ecc(v) = max(d(a,v), d(b,v))
// for a diametral pair (a, b): a is any vertex farthest from an arbitrary
// start, b any vertex farthest from a. Three BFS runs, O(n).
func (g *Graph) treeEccentricities() []int {
	n := g.N()
	da, db := make([]int32, n), make([]int32, n)
	queue := make([]int32, 0, n)
	a := g.bfs(0, da, queue)
	b := g.bfs(a, da, queue)
	g.bfs(b, db, queue)
	ecc := make([]int, n)
	for v := range ecc {
		ecc[v] = int(max(da[v], db[v]))
	}
	return ecc
}

// sweepEccentricities runs one BFS per source into a single reused
// distance buffer: O(n·m) time, O(n) memory.
func (g *Graph) sweepEccentricities() []int {
	n := g.N()
	dist := make([]int32, n)
	queue := make([]int32, 0, n)
	ecc := make([]int, n)
	for src := range ecc {
		far := g.bfs(src, dist, queue)
		ecc[src] = int(dist[far])
	}
	return ecc
}

// row returns the memoized distances from src (shared, read-only),
// computing them on first use. Racing first queries may both run the BFS;
// the rows are identical and the first one published wins.
func (g *Graph) row(src int) []int32 {
	g.ensureMetrics()
	slot := &g.met.rows[src]
	if r := slot.Load(); r != nil {
		return *r
	}
	r := make([]int32, g.N())
	g.bfs(src, r, make([]int32, 0, g.N()))
	if !slot.CompareAndSwap(nil, &r) {
		return *slot.Load()
	}
	return r
}

// Dist returns dist(g, u, v), the length of a shortest path between u and v.
func (g *Graph) Dist(u, v int) int {
	return int(g.row(u)[v])
}

// Eccentricity returns the maximal distance from v to any vertex.
func (g *Graph) Eccentricity(v int) int {
	g.ensureMetrics()
	return g.met.ecc[v]
}

// Diameter returns diam(g), the maximal distance between two vertices.
// A single-vertex graph has diameter 0.
func (g *Graph) Diameter() int {
	g.ensureMetrics()
	return g.met.diam
}

// Radius returns the minimal eccentricity over all vertices.
func (g *Graph) Radius() int {
	g.ensureMetrics()
	r := g.met.ecc[0]
	for _, e := range g.met.ecc {
		r = min(r, e)
	}
	return r
}

// Peripheral returns the lexicographically least pair (u, v), u ≤ v, with
// dist(g,u,v) = diam(g). Theorem 4's lower-bound construction and the
// adversarial island configurations of internal/core both start from such
// an antipodal pair. u is the least vertex of maximal eccentricity: every
// vertex at distance diam from it has maximal eccentricity too, hence is
// at least u, so scanning u's row from u finds v.
func (g *Graph) Peripheral() (u, v int) {
	g.ensureMetrics()
	for a, e := range g.met.ecc {
		if e != g.met.diam {
			continue
		}
		r := g.row(a)
		for b := a; b < len(r); b++ {
			if int(r[b]) == g.met.diam {
				return a, b
			}
		}
	}
	return 0, 0 // unreachable on a valid graph; n==1 yields (0,0).
}

// Ball returns the set of vertices at distance at most r from center,
// in increasing vertex order.
func (g *Graph) Ball(center, r int) []int {
	var out []int
	for v, d := range g.row(center) {
		if int(d) <= r {
			out = append(out, v)
		}
	}
	return out
}

// BFSDistances returns a fresh slice of distances from src to every vertex.
func (g *Graph) BFSDistances(src int) []int {
	r := g.row(src)
	out := make([]int, len(r))
	for v, d := range r {
		out[v] = int(d)
	}
	return out
}

// IsTree reports whether the graph is acyclic (m = n − 1; it is connected
// by construction). Trees have hole(g) = cyclo(g) = 2 by the conventions
// of Boulinier et al.
func (g *Graph) IsTree() bool { return g.m == g.N()-1 }

package graph

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// oracleMetrics is the all-pairs reference the metric methods are checked
// against: one fresh BFS row per source, the eccentricities read off the
// rows, and the Peripheral pair found by the row-major scan of the full
// matrix. It is quadratic in memory, which is why it lives only here.
type oracleMetrics struct {
	dist [][]int
	ecc  []int
	diam int
	u, v int
}

func computeOracle(g *Graph) oracleMetrics {
	n := g.N()
	o := oracleMetrics{dist: make([][]int, n), ecc: make([]int, n)}
	for src := 0; src < n; src++ {
		row := make([]int, n)
		for i := range row {
			row[i] = -1
		}
		row[src] = 0
		queue := []int{src}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, v := range g.Neighbors(u) {
				if row[v] < 0 {
					row[v] = row[u] + 1
					o.ecc[src] = max(o.ecc[src], row[v])
					queue = append(queue, v)
				}
			}
		}
		o.dist[src] = row
		o.diam = max(o.diam, o.ecc[src])
	}
	for a := 0; a < n; a++ {
		for b := a; b < n; b++ {
			if o.dist[a][b] == o.diam {
				o.u, o.v = a, b
				return o
			}
		}
	}
	return o
}

// oracleGraphs covers every generator, odd and even rings down to C_3,
// K1 and K2, a relabelled cycle (the cycle case must not depend on vertex
// order), a unicyclic graph, and random trees and connected graphs on several seeds — so
// each eccentricity strategy (cycle, tree, generic sweep) is exercised.
func oracleGraphs() []*Graph {
	gs := []*Graph{
		Ring(3), Ring(4), Ring(5), Ring(8), Ring(9), Ring(64), Ring(65),
		Path(1), Path(2), Path(3), Path(10),
		Complete(1), Complete(2), Complete(5),
		Star(2), Star(7),
		Grid(1, 5), Grid(3, 4), Grid(5, 5),
		Torus(3, 3), Torus(4, 5),
		Hypercube(1), Hypercube(3), Hypercube(5),
		BinaryTree(1), BinaryTree(7), BinaryTree(20),
		Wheel(4), Wheel(9),
		Lollipop(4, 3), Lollipop(2, 6),
		Petersen(),
		Circulant(8, []int{1}), Circulant(12, []int{1, 3}), Circulant(10, []int{2, 5}),
		Barbell(3, 0), Barbell(4, 3),
		Caterpillar(1, 2), Caterpillar(6, 2),
		CycleWithChord(8, 2), CycleWithChord(11, 5),
	}
	perm := []int{4, 0, 6, 2, 5, 1, 3}
	var edges [][2]int
	for i := range perm {
		edges = append(edges, [2]int{perm[i], perm[(i+1)%len(perm)]})
	}
	gs = append(gs, MustNew("relabelled-ring-7", len(perm), edges))
	// A unicyclic graph on which the tree identity would be wrong: with a
	// pendant at vertex 0 of C_6, ecc(1) = 3 but the two sweeps give 2.
	gs = append(gs, MustNew("ring-6+pendant", 7, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}, {0, 6}}))
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		gs = append(gs,
			RandomTree(int(seed)*7, rng),
			RandomConnected(int(seed)*6, int(seed)*2, rng),
			RandomConnected(30, 3, rng),
		)
	}
	return gs
}

func TestMetricsMatchAllPairsOracle(t *testing.T) {
	t.Parallel()
	for _, g := range oracleGraphs() {
		name := fmt.Sprintf("%s/n=%d/m=%d", g.Name(), g.N(), g.M())
		o := computeOracle(g)
		n := g.N()
		if got := g.Diameter(); got != o.diam {
			t.Errorf("%s: Diameter=%d, oracle %d", name, got, o.diam)
		}
		radius := o.ecc[0]
		for v := 0; v < n; v++ {
			radius = min(radius, o.ecc[v])
			if got := g.Eccentricity(v); got != o.ecc[v] {
				t.Errorf("%s: Eccentricity(%d)=%d, oracle %d", name, v, got, o.ecc[v])
			}
		}
		if got := g.Radius(); got != radius {
			t.Errorf("%s: Radius=%d, oracle %d", name, got, radius)
		}
		if u, v := g.Peripheral(); u != o.u || v != o.v {
			t.Errorf("%s: Peripheral=(%d,%d), oracle (%d,%d)", name, u, v, o.u, o.v)
		}
		for src := 0; src < n; src++ {
			row := g.BFSDistances(src)
			for v := 0; v < n; v++ {
				if row[v] != o.dist[src][v] || g.Dist(src, v) != o.dist[src][v] {
					t.Fatalf("%s: dist(%d,%d): BFSDistances %d, Dist %d, oracle %d",
						name, src, v, row[v], g.Dist(src, v), o.dist[src][v])
				}
			}
			for r := -1; r <= o.diam+1; r++ {
				var want []int
				for v := 0; v < n; v++ {
					if o.dist[src][v] <= r {
						want = append(want, v)
					}
				}
				if got := g.Ball(src, r); fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("%s: Ball(%d,%d)=%v, oracle %v", name, src, r, got, want)
				}
			}
		}
	}
}

// TestMetricsConcurrentFirstUse has several goroutines make the first
// metric and row queries of fresh graphs at once, as the parallel
// experiment harness's engines do; every goroutine must see the oracle's
// values, and the race detector must see no unsynchronized publication.
func TestMetricsConcurrentFirstUse(t *testing.T) {
	t.Parallel()
	for _, mk := range []func() *Graph{
		func() *Graph { return Ring(33) },
		func() *Graph { return Path(40) },
		func() *Graph { return Petersen() },
		func() *Graph { return RandomConnected(25, 10, rand.New(rand.NewSource(7))) },
	} {
		o := computeOracle(mk())
		g := mk()
		var wg sync.WaitGroup
		errs := make([]error, 4)
		for w := range errs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if d := g.Diameter(); d != o.diam {
					errs[w] = fmt.Errorf("Diameter=%d, oracle %d", d, o.diam)
					return
				}
				for i := 0; i < g.N(); i++ {
					src := (i + w*5) % g.N()
					for v, d := range g.BFSDistances(src) {
						if d != o.dist[src][v] {
							errs[w] = fmt.Errorf("dist(%d,%d)=%d, oracle %d", src, v, d, o.dist[src][v])
							return
						}
					}
				}
			}()
		}
		wg.Wait()
		for w, err := range errs {
			if err != nil {
				t.Errorf("%s worker %d: %v", g.Name(), w, err)
			}
		}
	}
}

// TestMetricsAtScale pins the two structural shortcuts far beyond the
// size an all-pairs matrix could hold: a 2¹⁷-ring (cycle case) and a
// 40000-vertex path (tree case), each with a queried distance row.
func TestMetricsAtScale(t *testing.T) {
	t.Parallel()
	ring := Ring(1 << 17)
	if d := ring.Diameter(); d != 1<<16 {
		t.Errorf("Ring(2^17): Diameter=%d, want %d", d, 1<<16)
	}
	if d := ring.Dist(0, 1<<16); d != 1<<16 {
		t.Errorf("Ring(2^17): Dist(0, 2^16)=%d, want %d", d, 1<<16)
	}
	path := Path(40000)
	if d := path.Diameter(); d != 39999 {
		t.Errorf("Path(40000): Diameter=%d, want 39999", d)
	}
	if d := path.BFSDistances(0)[39999]; d != 39999 {
		t.Errorf("Path(40000): BFSDistances(0)[39999]=%d, want 39999", d)
	}
	if r := path.Radius(); r != 20000 {
		t.Errorf("Path(40000): Radius=%d, want 20000", r)
	}
	if u, v := path.Peripheral(); u != 0 || v != 39999 {
		t.Errorf("Path(40000): Peripheral=(%d,%d), want (0,39999)", u, v)
	}
}

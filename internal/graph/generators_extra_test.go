package graph

import (
	"fmt"
	"testing"
)

// Additional topology families for the graph tests: the metric oracle
// (metrics_oracle_test.go) runs on them besides the production generators,
// because a metric is only as well tested as the zoo it is checked on.

// Circulant returns the circulant graph C_n(jumps): vertex i is adjacent
// to i±j (mod n) for every jump j. Jumps must be in [1, n/2]; duplicate
// edges (e.g. j = n/2 twice) are merged.
func Circulant(n int, jumps []int) *Graph {
	if n < 3 {
		panic(fmt.Sprintf("graph: circulant needs n ≥ 3, got %d", n))
	}
	seen := make(map[[2]int]bool)
	var edges [][2]int
	for _, j := range jumps {
		if j < 1 || j > n/2 {
			panic(fmt.Sprintf("graph: circulant jump %d outside [1, %d]", j, n/2))
		}
		for i := 0; i < n; i++ {
			u, v := i, (i+j)%n
			key := [2]int{min(u, v), max(u, v)}
			if !seen[key] {
				seen[key] = true
				edges = append(edges, key)
			}
		}
	}
	return MustNew(fmt.Sprintf("circulant-%d%v", n, jumps), n, edges)
}

// Barbell returns two cliques of size k joined by a path of bridgeN
// vertices — two dense regions with a thin waist, the hostile case for
// privilege spreading.
func Barbell(k, bridgeN int) *Graph {
	if k < 2 || bridgeN < 0 {
		panic("graph: barbell needs k ≥ 2 and bridgeN ≥ 0")
	}
	n := 2*k + bridgeN
	var edges [][2]int
	clique := func(start int) {
		for i := start; i < start+k; i++ {
			for j := i + 1; j < start+k; j++ {
				edges = append(edges, [2]int{i, j})
			}
		}
	}
	clique(0)
	clique(k + bridgeN)
	// Bridge path k−1 → k → … → k+bridgeN.
	prev := k - 1
	for i := 0; i < bridgeN; i++ {
		edges = append(edges, [2]int{prev, k + i})
		prev = k + i
	}
	edges = append(edges, [2]int{prev, k + bridgeN})
	return MustNew(fmt.Sprintf("barbell-%d+%d", k, bridgeN), n, edges)
}

// Caterpillar returns a spine path of spineN vertices with legs leaves
// attached to every spine vertex — a tree with diameter spineN+1 and many
// degree-1 vertices.
func Caterpillar(spineN, legs int) *Graph {
	if spineN < 1 || legs < 0 {
		panic("graph: caterpillar needs spineN ≥ 1 and legs ≥ 0")
	}
	n := spineN * (1 + legs)
	var edges [][2]int
	for i := 0; i+1 < spineN; i++ {
		edges = append(edges, [2]int{i, i + 1})
	}
	next := spineN
	for i := 0; i < spineN; i++ {
		for l := 0; l < legs; l++ {
			edges = append(edges, [2]int{i, next})
			next++
		}
	}
	return MustNew(fmt.Sprintf("caterpillar-%dx%d", spineN, legs), n, edges)
}

// CycleWithChord returns C_n plus one chord between vertices 0 and span —
// the minimal non-ring, non-tree instance whose hole/cyclo constants differ
// from both extremes (useful for unison parameter tests).
func CycleWithChord(n, span int) *Graph {
	if n < 4 || span < 2 || span > n-2 {
		panic(fmt.Sprintf("graph: chord span %d invalid for C_%d", span, n))
	}
	edges := make([][2]int, 0, n+1)
	for i := 0; i < n; i++ {
		edges = append(edges, [2]int{i, (i + 1) % n})
	}
	edges = append(edges, [2]int{0, span})
	return MustNew(fmt.Sprintf("chordcycle-%d@%d", n, span), n, edges)
}

func TestCirculant(t *testing.T) {
	t.Parallel()
	// C_8(1) is the plain ring.
	ring := Circulant(8, []int{1})
	if ring.M() != 8 || ring.Diameter() != 4 {
		t.Errorf("C_8(1): m=%d diam=%d", ring.M(), ring.Diameter())
	}
	// C_8(1,2) halves the diameter.
	fast := Circulant(8, []int{1, 2})
	if fast.M() != 16 || fast.Diameter() != 2 {
		t.Errorf("C_8(1,2): m=%d diam=%d", fast.M(), fast.Diameter())
	}
	// j = n/2 antipodal edges must not be duplicated.
	half := Circulant(6, []int{1, 3})
	if half.M() != 9 {
		t.Errorf("C_6(1,3): m=%d, want 6 ring + 3 antipodal = 9", half.M())
	}
	for _, bad := range [][]int{{0}, {5}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("jumps %v: expected panic", bad)
				}
			}()
			Circulant(8, bad)
		}()
	}
}

func TestBarbell(t *testing.T) {
	t.Parallel()
	g := Barbell(4, 3)
	if g.N() != 11 {
		t.Fatalf("n=%d, want 11", g.N())
	}
	// Two K4s (6 edges each) + 4 bridge edges.
	if g.M() != 16 {
		t.Errorf("m=%d, want 16", g.M())
	}
	// Diameter: clique-end to clique-end = 1 + 4 + 1.
	if g.Diameter() != 6 {
		t.Errorf("diam=%d, want 6", g.Diameter())
	}
	if h, ok := g.Hole(); !ok || h != 3 {
		t.Errorf("hole=%d ok=%v, want 3 (triangles only)", h, ok)
	}
}

func TestBarbellNoBridge(t *testing.T) {
	t.Parallel()
	g := Barbell(3, 0)
	if g.N() != 6 || !g.Adjacent(2, 3) {
		t.Errorf("adjacent cliques must touch via the direct bridge edge")
	}
}

func TestCaterpillar(t *testing.T) {
	t.Parallel()
	g := Caterpillar(4, 2)
	if g.N() != 12 || !g.IsTree() {
		t.Fatalf("caterpillar n=%d tree=%v", g.N(), g.IsTree())
	}
	// Leg to leg across the full spine: 1 + 3 + 1.
	if g.Diameter() != 5 {
		t.Errorf("diam=%d, want 5", g.Diameter())
	}
	if h, _ := g.Hole(); h != 2 {
		t.Errorf("tree hole=%d, want 2", h)
	}
}

func TestCycleWithChord(t *testing.T) {
	t.Parallel()
	g := CycleWithChord(8, 3)
	if g.M() != 9 {
		t.Fatalf("m=%d, want 9", g.M())
	}
	// Hole: the longer arc 0-3-4-5-6-7 plus chord = induced 6-cycle;
	// the chord kills the 8-cycle's chordlessness.
	if h, ok := g.Hole(); !ok || h != 6 {
		t.Errorf("hole=%d, want 6", h)
	}
	if g.IsCycleGraph() {
		t.Error("chorded cycle must not report as cycle graph")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("span n−1 must panic (parallel edge)")
			}
		}()
		CycleWithChord(8, 7)
	}()
}

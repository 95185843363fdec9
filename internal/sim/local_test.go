package sim_test

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"specstab/internal/bfstree"
	"specstab/internal/compose"
	"specstab/internal/core"
	"specstab/internal/daemon"
	"specstab/internal/dijkstra"
	"specstab/internal/graph"
	"specstab/internal/lexclusion"
	"specstab/internal/matching"
	"specstab/internal/sim"
	"specstab/internal/unison"
)

// influenceOracle is the influence-set builder the engine used before the
// CSR form: one slice per vertex grown by append, {v} ∪ {u : v ∈
// Neighbors(u)}, then sorted and deduplicated.
func influenceOracle(n int, l sim.Local) [][]int {
	out := make([][]int, n)
	for v := 0; v < n; v++ {
		out[v] = append(out[v], v)
	}
	for u := 0; u < n; u++ {
		for _, v := range l.Neighbors(u) {
			if v != u {
				out[v] = append(out[v], u)
			}
		}
	}
	for v := range out {
		sort.Ints(out[v])
		out[v] = slices.Compact(out[v])
	}
	return out
}

// checkCSR fails t unless the CSR rows (off, adj) are exactly want's rows.
func checkCSR(t *testing.T, name string, off, adj []int, want [][]int) {
	t.Helper()
	n := len(want)
	if len(off) != n+1 || off[0] != 0 || off[n] != len(adj) {
		t.Fatalf("%s: offsets %v do not frame %d rows of %d entries", name, off, n, len(adj))
	}
	for v := 0; v < n; v++ {
		if got := adj[off[v]:off[v+1]]; !slices.Equal(got, want[v]) {
			t.Fatalf("%s: row %d = %v, oracle %v", name, v, got, want[v])
		}
	}
}

// checkEngineInfluence builds an incremental engine on p and compares its
// influence rows with the oracle's.
func checkEngineInfluence[S comparable](t *testing.T, name string, p sim.Protocol[S]) {
	t.Helper()
	l := sim.LocalOf(p)
	if l == nil {
		t.Fatalf("%s does not declare sim.Local", name)
	}
	initial := sim.RandomConfig(p, rand.New(rand.NewSource(1)))
	e, err := sim.NewEngineWith(p, daemon.NewMinIDCentral[S](), initial, 1, sim.Options{Workers: 1})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	off, adj := e.Influence()
	checkCSR(t, name, off, adj, influenceOracle(p.N(), l))
}

// TestInfluenceCSRMatchesOracle pins the engine's CSR influence sets to
// the per-vertex builder they replaced, for every Local protocol on the
// quick topology zoo of the experiments, on hand-written read-sets that
// list duplicates and the vertex itself, and without a declaration.
func TestInfluenceCSRMatchesOracle(t *testing.T) {
	t.Parallel()
	zoo := []*graph.Graph{
		graph.Ring(8),
		graph.Path(7),
		graph.Star(6),
		graph.Grid(3, 3),
		graph.RandomConnected(8, 4, rand.New(rand.NewSource(7))),
	}
	for _, g := range zoo {
		name := g.Name()
		checkEngineInfluence[int](t, name+"/ssme", core.MustNew(g))
		checkEngineInfluence[int](t, name+"/bfstree", bfstree.MustNew(g, 0))
		checkEngineInfluence[matching.State](t, name+"/matching", matching.New(g))
		checkEngineInfluence[int](t, name+"/lexclusion", lexclusion.MustNew(g, 2))
		uni, err := unison.New(g, unison.MinimalParams(g))
		if err != nil {
			t.Fatalf("%s/unison: %v", name, err)
		}
		checkEngineInfluence[int](t, name+"/unison", uni)
		checkEngineInfluence[compose.Pair[int, int]](t, name+"/product", compose.MustNew[int, int](uni, bfstree.MustNew(g, g.N()-1)))
	}
	checkEngineInfluence[int](t, "dijkstra", dijkstra.MustNew(8, 8))

	lists := sim.NeighborLists{
		{1, 1, 0, 3, 3, 3}, // v itself and repeated neighbours
		{0, 2, 0, 1},
		{},
		{2, 2, 0, 3},
		{4},
	}
	off, adj := sim.InfluenceCSR(len(lists), lists)
	checkCSR(t, "neighbor-lists", off, adj, influenceOracle(len(lists), lists))
	off, adj = sim.InfluenceCSR(0, sim.NeighborLists{})
	checkCSR(t, "empty", off, adj, nil)
	// Without a locality declaration every vertex may read every other.
	off, adj = sim.InfluenceCSR(3, nil)
	checkCSR(t, "undeclared", off, adj, [][]int{{0, 1, 2}, {0, 1, 2}, {0, 1, 2}})
}

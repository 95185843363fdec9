package sim_test

// Conformance of the Flat codecs (sim.Flat): for every protocol providing
// the capability, over random configurations, the packed batch kernels
// must agree vertex by vertex with the generic EnabledRule/Apply, and
// EncodeState/DecodeState must round-trip every reachable state. The
// differential tests then prove whole executions identical; this test
// pinpoints the offending vertex/rule when a codec is wrong.

import (
	"math/rand"
	"testing"

	"specstab/internal/bfstree"
	"specstab/internal/compose"
	"specstab/internal/core"
	"specstab/internal/dijkstra"
	"specstab/internal/graph"
	"specstab/internal/lexclusion"
	"specstab/internal/matching"
	"specstab/internal/sim"
	"specstab/internal/unison"
)

// checkFlatConformance drives the comparison for one protocol.
func checkFlatConformance[S comparable](t *testing.T, name string, p sim.Protocol[S]) {
	t.Helper()
	t.Run(name, func(t *testing.T) {
		t.Parallel()
		fl := sim.FlatOf(p)
		if fl == nil {
			t.Fatalf("%s does not provide sim.Flat", p.Name())
		}
		w := fl.FlatWords()
		if w < 1 {
			t.Fatalf("FlatWords() = %d, want ≥ 1", w)
		}
		n := p.N()
		rng := rand.New(rand.NewSource(11))
		vs := make([]int, n)
		for v := range vs {
			vs[v] = v
		}
		rules := make([]sim.Rule, n)
		next := make([]int64, n*w)
		for trial := 0; trial < 25; trial++ {
			cfg := sim.RandomConfig(p, rng)
			st := make([]int64, n*w)
			for v := 0; v < n; v++ {
				fl.EncodeState(v, cfg[v], st[v*w:(v+1)*w])
				if got := fl.DecodeState(v, st[v*w:(v+1)*w]); got != cfg[v] {
					t.Fatalf("trial %d: encode/decode of vertex %d not a round-trip: %v → %v", trial, v, cfg[v], got)
				}
			}
			fl.EnabledRuleFlat(st, w, 0, vs, rules)
			for v := 0; v < n; v++ {
				r, ok := p.EnabledRule(cfg, v)
				if !ok {
					r = sim.NoRule
				}
				if rules[v] != r {
					t.Fatalf("trial %d: guard of vertex %d diverges: flat %d vs generic %d", trial, v, rules[v], r)
				}
			}
			// Apply every enabled vertex and compare the decoded results.
			firing := vs[:0:0]
			frules := rules[:0:0]
			for v := 0; v < n; v++ {
				if rules[v] != sim.NoRule {
					firing = append(firing, v)
					frules = append(frules, rules[v])
				}
			}
			if len(firing) == 0 {
				continue
			}
			fl.ApplyFlat(st, w, 0, firing, frules, next[:len(firing)*w], w, 0)
			for i, v := range firing {
				want := p.Apply(cfg, v, frules[i])
				got := fl.DecodeState(v, next[i*w:(i+1)*w])
				if got != want {
					t.Fatalf("trial %d: apply of vertex %d rule %d diverges: flat %v vs generic %v", trial, v, frules[i], got, want)
				}
			}
		}
	})
}

// TestFlatConformance covers every flat protocol of the repository,
// including the zero-copy product composition of two flat codecs.
func TestFlatConformance(t *testing.T) {
	t.Parallel()

	ring := graph.Ring(9)
	grid := graph.Grid(3, 4)

	checkFlatConformance[int](t, "dijkstra", dijkstra.MustNew(8, 9))
	checkFlatConformance[int](t, "bfstree", bfstree.MustNew(grid, 2))
	checkFlatConformance[int](t, "ssme", core.MustNew(ring))
	checkFlatConformance[int](t, "lexclusion", lexclusion.MustNew(grid, 3))
	checkFlatConformance[matching.State](t, "matching-petersen", matching.New(graph.Petersen()))
	checkFlatConformance[matching.State](t, "matching-grid", matching.New(grid))
	checkFlatConformance[matching.State](t, "matching-ring", matching.New(ring))

	uni, err := unison.New(grid, unison.MinimalParams(grid))
	if err != nil {
		t.Fatal(err)
	}
	checkFlatConformance[int](t, "unison", uni)
	checkFlatConformance[compose.Pair[int, int]](t, "product",
		compose.MustNew[int, int](uni, bfstree.MustNew(grid, 0)))
	checkFlatConformance[compose.Pair[compose.Pair[int, int], int]](t, "nested-product",
		compose.MustNew[compose.Pair[int, int], int](
			compose.MustNew[int, int](uni, bfstree.MustNew(grid, 0)),
			bfstree.MustNew(grid, 5)))
}

// TestFlatOfAbsent: a protocol without the capability reports nil, and a
// wrapper that forwards its component's codec reports that codec.
func TestFlatOfAbsent(t *testing.T) {
	t.Parallel()
	b := bfstree.MustNew(graph.Ring(5), 0)
	if sim.FlatOf[int](noFlat{b}) != nil {
		t.Fatal("noFlat wrapper must not provide Flat")
	}
	if sim.FlatOf[int](opaque{b}) == nil {
		t.Fatal("opaque wrapper must forward its component's Flat")
	}
}

// noFlat wraps a protocol, exposing only the Protocol methods.
type noFlat struct{ sim.Protocol[int] }

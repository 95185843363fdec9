package unison

import (
	"fmt"
	"testing"

	"specstab/internal/graph"
	"specstab/internal/sim"
)

// TestFlatKernelOracle checks the batch kernels against the generic guards
// and moves on every local neighbourhood a vertex can have: the centre's
// value and each neighbour's value range independently over
// [−α−2, K+1] — the whole cherry plus two values outside it at each end.
// The rings give every (r_v, r_u1, r_u2) of a degree-2 vertex (Ring(3)
// makes every vertex a centre); the star's centre has degree 3. Both the
// unit layout (the engine's, which takes the unit-stride kernel) and a
// strided one (stride 2, base 1, as compose.Product lays out its second
// component) are checked, guards and applies alike.
func TestFlatKernelOracle(t *testing.T) {
	t.Parallel()
	for _, g := range []*graph.Graph{graph.Ring(3), graph.Ring(4), graph.Star(4)} {
		t.Run(g.Name(), func(t *testing.T) {
			t.Parallel()
			p, err := New(g, MinimalParams(g))
			if err != nil {
				t.Fatal(err)
			}
			x := p.Clock()
			lo, hi := -x.Alpha-2, x.K+1
			n := g.N()
			// The odometer's digits: the centre (vertex 0), then its
			// neighbours; every other vertex copies the centre.
			digits := append([]int{0}, g.Neighbors(0)...)
			vals := make([]int, len(digits))
			for i := range vals {
				vals[i] = lo
			}
			cfg := make(sim.Config[int], n)
			for {
				for v := range cfg {
					cfg[v] = vals[0]
				}
				for i, v := range digits {
					cfg[v] = vals[i]
				}
				checkFlatAgainstGeneric(t, p, cfg)
				i := 0
				for i < len(vals) && vals[i] == hi {
					vals[i] = lo
					i++
				}
				if i == len(vals) {
					break
				}
				vals[i]++
			}
		})
	}
}

// checkFlatAgainstGeneric compares, at every vertex of cfg, the flat
// guard in both layouts with EnabledRule, and the flat apply with Apply:
// for every rule inside the cherry (φ and the reset agree on any cherry
// value), and for the enabled rule outside it.
func checkFlatAgainstGeneric(t *testing.T, p *Protocol, cfg sim.Config[int]) {
	t.Helper()
	x := p.Clock()
	n := len(cfg)
	// A word no kernel may read: outside the cherry, so reading it instead
	// of the vertex's own word would change the outcome.
	poison := int64(x.K + 1000)
	unit := make([]int64, n)
	strided := make([]int64, 2*n)
	vs := make([]int, n)
	for v := range cfg {
		unit[v] = int64(cfg[v])
		strided[2*v], strided[2*v+1] = poison, int64(cfg[v])
		vs[v] = v
	}
	unitRules := make([]sim.Rule, n)
	stridedRules := make([]sim.Rule, n)
	p.EnabledRuleFlat(unit, 1, 0, vs, unitRules)
	p.EnabledRuleFlat(strided, 2, 1, vs, stridedRules)

	var moveVs []int
	var moveRules []sim.Rule
	for v := range cfg {
		want, ok := p.EnabledRule(cfg, v)
		if !ok {
			want = sim.NoRule
		}
		if unitRules[v] != want || stridedRules[v] != want {
			t.Fatalf("%s: guard of vertex %d diverges: unit %s, strided %s, generic %s",
				describe(p, cfg), v, p.RuleName(unitRules[v]), p.RuleName(stridedRules[v]), p.RuleName(want))
		}
		for _, r := range []sim.Rule{RuleNA, RuleCA, RuleRA} {
			if r == want || x.Contains(cfg[v]) {
				moveVs = append(moveVs, v)
				moveRules = append(moveRules, r)
			}
		}
	}
	k := len(moveVs)
	unitOut := make([]int64, k)
	stridedOut := make([]int64, 2*k)
	for i := range stridedOut {
		stridedOut[i] = poison
	}
	p.ApplyFlat(unit, 1, 0, moveVs, moveRules, unitOut, 1, 0)
	p.ApplyFlat(strided, 2, 1, moveVs, moveRules, stridedOut, 2, 1)
	for i, v := range moveVs {
		want := int64(p.Apply(cfg, v, moveRules[i]))
		if unitOut[i] != want || stridedOut[2*i+1] != want || stridedOut[2*i] != poison {
			t.Fatalf("%s: %s at vertex %d diverges: unit %d, strided %d (gap word %d), generic %d",
				describe(p, cfg), p.RuleName(moveRules[i]), v, unitOut[i], stridedOut[2*i+1], stridedOut[2*i], want)
		}
	}
}

func describe(p *Protocol, cfg sim.Config[int]) string {
	return fmt.Sprintf("%s config %v", p.Name(), []int(cfg))
}

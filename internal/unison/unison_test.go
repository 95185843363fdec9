package unison

import (
	"math/rand"
	"testing"
	"testing/quick"

	"specstab/internal/clock"
	"specstab/internal/daemon"
	"specstab/internal/graph"
	"specstab/internal/sim"
)

func testGraphs(tb testing.TB) []*graph.Graph {
	tb.Helper()
	rng := rand.New(rand.NewSource(13))
	return []*graph.Graph{
		graph.Ring(7),
		graph.Path(6),
		graph.Star(6),
		graph.Grid(3, 3),
		graph.Complete(5),
		graph.Petersen(),
		graph.RandomTree(9, rng),
		graph.RandomConnected(9, 4, rng),
	}
}

func TestValidateParams(t *testing.T) {
	t.Parallel()
	ring := graph.Ring(8) // hole = cyclo = 8
	if err := ValidateParams(ring, clock.MustNew(5, 9)); err == nil {
		t.Error("α=5 < hole−2=6 should be rejected")
	}
	if err := ValidateParams(ring, clock.MustNew(6, 8)); err == nil {
		t.Error("K=8 ≤ cyclo=8 should be rejected on a cycle graph")
	}
	if err := ValidateParams(ring, clock.MustNew(6, 9)); err != nil {
		t.Errorf("minimal ring parameters rejected: %v", err)
	}
	tree := graph.Path(7) // hole = cyclo = 2
	if err := ValidateParams(tree, clock.MustNew(1, 3)); err != nil {
		t.Errorf("minimal tree parameters rejected: %v", err)
	}
	if err := ValidateParams(tree, clock.MustNew(1, 2)); err == nil {
		t.Error("K=2 ≤ cyclo=2 should be rejected on a tree")
	}
}

func TestMinimalAndSafeParamsValidate(t *testing.T) {
	t.Parallel()
	for _, g := range testGraphs(t) {
		for _, x := range []clock.Clock{MinimalParams(g), SafeParams(g)} {
			if err := ValidateParams(g, x); err != nil {
				t.Errorf("%s with %s: %v", g.Name(), x, err)
			}
		}
	}
}

func TestRulesMutuallyExclusive(t *testing.T) {
	t.Parallel()
	// The guards of NA, CA, RA are pairwise disjoint: EnabledRule returns
	// the highest-priority one, so verify by checking each guard directly
	// over random configurations.
	for _, g := range testGraphs(t) {
		u, err := New(g, SafeParams(g))
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(2))
		for trial := 0; trial < 100; trial++ {
			c := sim.RandomConfig[int](u, rng)
			for v := 0; v < g.N(); v++ {
				na := u.normalStep(c, v)
				ca := u.convergeStep(c, v)
				ra := !u.AllCorrect(c, v) && !u.Clock().InInit(c[v])
				if (na && ca) || (na && ra) || (ca && ra) {
					t.Fatalf("%s: guards overlap at vertex %d in %v (NA=%v CA=%v RA=%v)",
						g.Name(), v, c, na, ca, ra)
				}
			}
		}
	}
}

func TestConvergenceToGamma1UnderManyDaemons(t *testing.T) {
	t.Parallel()
	for _, g := range testGraphs(t) {
		for _, params := range []clock.Clock{MinimalParams(g), SafeParams(g)} {
			u, err := New(g, params)
			if err != nil {
				t.Fatal(err)
			}
			daemons := []sim.Daemon[int]{
				daemon.NewSynchronous[int](),
				daemon.NewRandomCentral[int](),
				daemon.NewDistributed[int](0.5),
				daemon.NewGreedyCentral[int](u, u.DisorderPotential),
			}
			rng := rand.New(rand.NewSource(3))
			for _, d := range daemons {
				e := sim.MustEngine[int](u, d, sim.RandomConfig[int](u, rng), 7)
				if _, err := e.Run(u.UnfairHorizonMoves(), u.Legitimate); err != nil {
					t.Fatal(err)
				}
				if !u.Legitimate(e.Current()) {
					t.Errorf("%s (%s) under %s: Γ₁ not reached", g.Name(), params, d.Name())
				}
			}
		}
	}
}

func TestSynchronousWithinBoulinierBound(t *testing.T) {
	t.Parallel()
	// Boulinier et al.: unison reaches Γ₁ within α + lcp(g) + diam(g)
	// synchronous steps.
	for _, g := range testGraphs(t) {
		u, err := New(g, SafeParams(g))
		if err != nil {
			t.Fatal(err)
		}
		bound := u.SyncHorizon()
		rng := rand.New(rand.NewSource(4))
		for trial := 0; trial < 30; trial++ {
			e := sim.MustEngine[int](u, daemon.NewSynchronous[int](), sim.RandomConfig[int](u, rng), 1)
			if _, err := e.Run(bound, u.Legitimate); err != nil {
				t.Fatal(err)
			}
			if !u.Legitimate(e.Current()) {
				t.Errorf("%s: Γ₁ not reached within α+lcp+diam = %d sync steps", g.Name(), bound)
			}
		}
	}
}

func TestClosureOfGamma1(t *testing.T) {
	t.Parallel()
	// From any sampled legitimate configuration, every daemon keeps the
	// execution inside Γ₁ and every clock keeps incrementing (liveness).
	for _, g := range testGraphs(t) {
		u, err := New(g, SafeParams(g))
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(5))
		for trial := 0; trial < 10; trial++ {
			c := randomLegitimateConfig(u, rng)
			if !u.Legitimate(c) {
				t.Fatalf("%s: sampler produced non-legitimate config", g.Name())
			}
			e := sim.MustEngine[int](u, daemon.NewDistributed[int](0.5), c, int64(trial))
			increments := make([]int, g.N())
			e.AddHook(func(info sim.StepInfo) {
				for _, v := range info.Activated {
					increments[v]++
				}
			})
			window := 4 * u.Clock().K
			for i := 0; i < window; i++ {
				if _, err := e.Step(); err != nil {
					t.Fatal(err)
				}
				if !u.Legitimate(e.Current()) {
					t.Fatalf("%s trial %d: left Γ₁ at step %d — closure broken", g.Name(), trial, i)
				}
			}
			for v, inc := range increments {
				if inc == 0 {
					t.Errorf("%s trial %d: vertex %d never incremented in %d steps", g.Name(), trial, v, window)
				}
			}
		}
	}
}

// TestDriftBoundedByDistance property-checks the observation Theorem 1
// builds on: in Γ₁, d_K(r_u, r_v) ≤ dist(u, v) for every pair.
func TestDriftBoundedByDistance(t *testing.T) {
	t.Parallel()
	g := graph.Grid(3, 4)
	u, err := New(g, SafeParams(g))
	if err != nil {
		t.Fatal(err)
	}
	cfg := &quick.Config{MaxCount: 150, Rand: rand.New(rand.NewSource(6))}
	prop := func(seed int64) bool {
		c := randomLegitimateConfig(u, rand.New(rand.NewSource(seed)))
		for a := 0; a < g.N(); a++ {
			for b := a + 1; b < g.N(); b++ {
				if u.Clock().DK(c[a], c[b]) > g.Dist(a, b) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

func TestIllegitimacyCountAndPotential(t *testing.T) {
	t.Parallel()
	g := graph.Ring(6)
	u, err := New(g, SafeParams(g))
	if err != nil {
		t.Fatal(err)
	}
	disorder := func(c sim.Config[int]) int64 {
		var total int64
		for v := range c {
			total += u.DisorderPotential(c, v)
		}
		return total
	}
	legit := randomLegitimateConfig(u, rand.New(rand.NewSource(7)))
	if illegitimacyCount(u, legit) != 0 || disorder(legit) != 0 {
		t.Error("legitimate configuration should have zero disorder")
	}
	broken := legit.Clone()
	broken[0] = u.Clock().Reset()
	if illegitimacyCount(u, broken) == 0 || disorder(broken) == 0 {
		t.Error("corrupted configuration should register disorder")
	}
}

func TestNoDeadlockOnRandomConfigs(t *testing.T) {
	t.Parallel()
	// Unison's spec is perpetual: no configuration may be terminal.
	for _, g := range testGraphs(t) {
		u, err := New(g, MinimalParams(g))
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(8))
		for trial := 0; trial < 200; trial++ {
			c := sim.RandomConfig[int](u, rng)
			if sim.Terminal[int](u, c) {
				t.Fatalf("%s: terminal configuration %v", g.Name(), c)
			}
		}
	}
}

func TestSingleVertexDegenerateGraph(t *testing.T) {
	t.Parallel()
	g := graph.MustNew("solo", 1, nil)
	u, err := New(g, clock.MustNew(1, 3))
	if err != nil {
		t.Fatal(err)
	}
	e := sim.MustEngine[int](u, daemon.NewSynchronous[int](), sim.Config[int]{-1}, 1)
	for i := 0; i < 10; i++ {
		if _, err := e.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if !u.Legitimate(e.Current()) {
		t.Errorf("solo vertex should be legitimate, got %v", e.Current())
	}
}

func TestRuleNamesAndProtocolName(t *testing.T) {
	t.Parallel()
	g := graph.Ring(5)
	u, err := New(g, SafeParams(g))
	if err != nil {
		t.Fatal(err)
	}
	if u.RuleName(RuleNA) != "NA" || u.RuleName(RuleCA) != "CA" || u.RuleName(RuleRA) != "RA" {
		t.Error("unexpected rule names")
	}
	if u.Name() == "" || u.N() != 5 {
		t.Error("protocol identity broken")
	}
}

// randomLegitimateConfig samples a configuration of Γ₁: a random base value
// plus a ±1-bounded drift assigned along a BFS from a random root, then
// rejection-checked. It powers the closure and safety property tests.
func randomLegitimateConfig(p *Protocol, rng *rand.Rand) sim.Config[int] {
	n := p.g.N()
	for {
		c := make(sim.Config[int], n)
		root := rng.Intn(n)
		base := rng.Intn(p.x.K)
		assigned := make([]bool, n)
		c[root] = base
		assigned[root] = true
		queue := []int{root}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, v := range p.g.Neighbors(u) {
				if assigned[v] {
					continue
				}
				// Neighbor drift in {-1, 0, +1} around u's value.
				c[v] = p.x.Mod(c[u] + rng.Intn(3) - 1)
				assigned[v] = true
				queue = append(queue, v)
			}
		}
		if p.Legitimate(c) {
			return c
		}
	}
}

// illegitimacyCount returns the number of vertices of c whose local Γ₁
// predicate fails.
func illegitimacyCount(p *Protocol, c sim.Config[int]) int {
	count := 0
	for v := 0; v < p.g.N(); v++ {
		if !p.LocallyLegitimate(c, v) {
			count++
		}
	}
	return count
}

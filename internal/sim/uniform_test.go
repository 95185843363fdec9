package sim_test

// Fixpoint oracle of the Uniform capability (DESIGN.md §11). A protocol
// declaring UniformRule() = r promises that a configuration enabled
// everywhere with r has a synchronous successor enabled everywhere with r
// again; the engine then skips the guard pass of such a step. The first
// test checks the promise by enumerating every configuration of small
// instances of the unison family; the second drives speculating engines
// through the steady state, SetConfig included, in lockstep with
// full-rescan twins that never speculate.

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"specstab/internal/clock"
	"specstab/internal/core"
	"specstab/internal/daemon"
	"specstab/internal/graph"
	"specstab/internal/lexclusion"
	"specstab/internal/sim"
	"specstab/internal/unison"
)

// clocked is what the oracle needs of a unison-family protocol: its
// register domain and its graph.
type clocked interface {
	sim.Protocol[int]
	Clock() clock.Clock
	Graph() *graph.Graph
}

// uniformCase is one protocol instance of the oracle.
type uniformCase struct {
	name string
	p    clocked
}

// newUnison builds unison on g with an explicit clock.
func newUnison(t *testing.T, g *graph.Graph, alpha, k int) uniformCase {
	t.Helper()
	p, err := unison.New(g, clock.MustNew(alpha, k))
	if err != nil {
		t.Fatal(err)
	}
	return uniformCase{fmt.Sprintf("unison[α=%d,K=%d]@%s", alpha, k, g.Name()), p}
}

// enumerableZoo is the differential zoo at sizes whose whole state space
// (|cherry|ⁿ configurations, at most about 10⁵) can be enumerated. Unison
// runs on the smallest clocks its parameter check allows: K = 2 and 3 off
// trees and cycles, K = 3 on paths, K = n+1 on rings. SSME and
// ℓ-exclusion run on their own clocks.
func enumerableZoo(t *testing.T) []uniformCase {
	rnd := graph.RandomConnected(4, 1, rand.New(rand.NewSource(5)))
	return []uniformCase{
		newUnison(t, graph.Ring(3), 1, 4),
		newUnison(t, graph.Ring(4), 2, 5),
		newUnison(t, graph.Path(4), 1, 3),
		newUnison(t, graph.Grid(2, 3), 2, 2),
		newUnison(t, graph.Grid(2, 3), 2, 3),
		newUnison(t, graph.Complete(4), 1, 2),
		newUnison(t, graph.Complete(4), 2, 3),
		newUnison(t, graph.RandomConnected(5, 2, rand.New(rand.NewSource(3))), 3, 2),
		{"ssme@ring-3", core.MustNew(graph.Ring(3))},
		{"ssme@path-3", core.MustNew(graph.Path(3))},
		{"ssme@complete-3", core.MustNew(graph.Complete(3))},
		{"ssme@" + rnd.Name(), core.MustNew(rnd)},
		{"lexclusion[ℓ=2]@ring-3", lexclusion.MustNew(graph.Ring(3), 2)},
		{"lexclusion[ℓ=2]@path-3", lexclusion.MustNew(graph.Path(3), 2)},
		{"lexclusion[ℓ=2]@grid-2x2", lexclusion.MustNew(graph.Grid(2, 2), 2)},
	}
}

// enabledEverywhereWith reports whether every vertex of c is enabled
// with rule r.
func enabledEverywhereWith(p sim.Protocol[int], c sim.Config[int], r sim.Rule) bool {
	for v := range c {
		if got, _ := p.EnabledRule(c, v); got != r {
			return false
		}
	}
	return true
}

// TestUniformFixpointExhaustive enumerates every configuration of each
// instance and checks the declared rule r: wherever every vertex is
// enabled with r, the successor in which every vertex fired r is enabled
// everywhere with r again. The K uniform configurations are such
// configurations, so the check is never vacuous.
func TestUniformFixpointExhaustive(t *testing.T) {
	t.Parallel()
	for _, tc := range enumerableZoo(t) {
		p := tc.p
		r := sim.UniformOf[int](p)
		if r == sim.NoRule {
			t.Fatalf("%s declares no uniform rule", tc.name)
		}
		vals := p.Clock().Values()
		n := p.N()
		digits := make([]int, n)
		c := make(sim.Config[int], n)
		next := make(sim.Config[int], n)
		for v := range c {
			c[v] = vals[0]
		}
		configs, fixpoints := 0, 0
		for {
			configs++
			if enabledEverywhereWith(p, c, r) {
				fixpoints++
				for v := range c {
					next[v] = p.Apply(c, v, r)
				}
				if !enabledEverywhereWith(p, next, r) {
					t.Fatalf("%s: %v is enabled everywhere with %s, its synchronous successor %v is not",
						tc.name, c, p.RuleName(r), next)
				}
			}
			v := 0
			for ; v < n; v++ {
				if digits[v]++; digits[v] < len(vals) {
					c[v] = vals[digits[v]]
					break
				}
				digits[v] = 0
				c[v] = vals[0]
			}
			if v == n {
				break
			}
		}
		if k := p.Clock().K; fixpoints < k {
			t.Fatalf("%s: %d configurations enabled everywhere with %s, want at least the %d uniform ones",
				tc.name, fixpoints, p.RuleName(r), k)
		}
		t.Logf("%s: %d of %d configurations enabled everywhere with %s", tc.name, fixpoints, configs, p.RuleName(r))
	}
}

// engineZoo is the differential zoo at engine-test sizes, on clocks large
// enough (K ≥ 5) for mixedEnabled to exist.
func engineZoo(t *testing.T) []uniformCase {
	var out []uniformCase
	for _, g := range []*graph.Graph{
		graph.Ring(40),
		graph.Path(33),
		graph.Grid(5, 6),
		graph.Complete(12),
		graph.RandomConnected(36, 18, rand.New(rand.NewSource(9))),
	} {
		out = append(out,
			newUnison(t, g, max(1, g.HoleBound()-2), g.N()+2),
			uniformCase{"ssme@" + g.Name(), core.MustNew(g)},
			uniformCase{"lexclusion[ℓ=3]@" + g.Name(), lexclusion.MustNew(g, 3)})
	}
	return out
}

// mixedEnabled returns a configuration in which every vertex is enabled
// but not every vertex with NA: vertices near 0 hold 1, the others 4. A
// vertex with a neighbour across the border sees d_K = 3 > 1, so it is
// RA-enabled (its value is not in initX); every other vertex sees only
// equal neighbours and is NA-enabled.
func mixedEnabled(p clocked) sim.Config[int] {
	g := p.Graph()
	dist := g.BFSDistances(0)
	h := (slices.Max(dist) + 1) / 2
	c := make(sim.Config[int], p.N())
	for v := range c {
		c[v] = 4
		if dist[v] < h {
			c[v] = 1
		}
	}
	return c
}

// TestUniformEngineMatchesRescanTwin drives each instance under sd at
// Workers 1 and 4 (shards of 8 vertices, so every phase splits) from a
// random start into the steady state, then replaces the configuration
// with SetConfig four times — a mixed fully enabled one, one enabled
// everywhere with CA, a corrupted copy of the steady state and another
// steady state — and lets it settle again after each. After every step
// the speculating engine must show the Enabled() list, step rules,
// configuration, rounds and moves of a DisableIncremental twin that
// evaluates every guard. Before every SetConfig the engine must be
// speculating, so the replacement always lands on a recorded uniform
// rule.
func TestUniformEngineMatchesRescanTwin(t *testing.T) {
	t.Parallel()
	for _, tc := range engineZoo(t) {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/workers-%d", tc.name, workers), func(t *testing.T) {
				t.Parallel()
				checkUniformLockstep(t, tc.p, sim.Options{Workers: workers, ShardSize: 8})
			})
		}
	}
}

func checkUniformLockstep(t *testing.T, p clocked, opts sim.Options) {
	n, x := p.N(), p.Clock()
	rng := rand.New(rand.NewSource(int64(n)))
	initial := sim.RandomConfig[int](p, rng)
	spec, err := sim.NewEngineWith[int](p, daemon.NewSynchronous[int](), initial, 1, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer spec.Close()
	twin, err := sim.NewEngineWith[int](p, daemon.NewSynchronous[int](), initial, 1, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer twin.Close()
	twin.DisableIncremental()
	var specRules, twinRules []sim.Rule
	spec.AddHook(func(i sim.StepInfo) { specRules = append(specRules[:0], i.Rules...) })
	twin.AddHook(func(i sim.StepInfo) { twinRules = append(twinRules[:0], i.Rules...) })

	settle := 4*n + 2*x.Alpha + 20
	speculated := 0
	lastSpeculated := false
	step := func(phase string) {
		t.Helper()
		evals := spec.GuardEvals()
		ps, err := spec.Step()
		if err != nil {
			t.Fatal(err)
		}
		pt, err := twin.Step()
		if err != nil {
			t.Fatal(err)
		}
		at := fmt.Sprintf("%s, step %d", phase, spec.Steps())
		if ps != pt {
			t.Fatalf("%s: progress %v, twin %v", at, ps, pt)
		}
		if !slices.Equal(specRules, twinRules) {
			t.Fatalf("%s: step rules diverge from the twin", at)
		}
		if !slices.Equal(spec.Enabled(), twin.Enabled()) {
			t.Fatalf("%s: Enabled() diverges from the twin:\n%v\n%v", at, spec.Enabled(), twin.Enabled())
		}
		if !spec.Current().Equal(twin.Current()) {
			t.Fatalf("%s: configuration diverges from the twin", at)
		}
		if spec.Rounds() != twin.Rounds() || spec.Moves() != twin.Moves() {
			t.Fatalf("%s: rounds %d/%d, moves %d/%d", at, spec.Rounds(), twin.Rounds(), spec.Moves(), twin.Moves())
		}
		lastSpeculated = spec.GuardEvals() == evals
		if lastSpeculated {
			speculated++
		}
	}
	run := func(phase string) {
		t.Helper()
		for i := 0; i < settle; i++ {
			step(phase)
		}
		if !lastSpeculated {
			t.Fatalf("%s: not in the speculated steady state after %d steps", phase, settle)
		}
	}
	inject := func(phase string, c sim.Config[int], fullyEnabled bool) {
		t.Helper()
		if err := spec.SetConfig(c); err != nil {
			t.Fatal(err)
		}
		if err := twin.SetConfig(c); err != nil {
			t.Fatal(err)
		}
		if fullyEnabled && len(twin.Enabled()) != n {
			t.Fatalf("%s: %d of %d vertices enabled, want all", phase, len(twin.Enabled()), n)
		}
		run(phase)
	}

	run("from a random start")
	inject("after SetConfig(mixed)", mixedEnabled(p), true)
	allInit := make(sim.Config[int], n)
	for v := range allInit {
		allInit[v] = x.Reset()
	}
	inject("after SetConfig(all −α)", allInit, true)
	inject("after SetConfig(corrupt)", sim.Corrupt[int](p, spec.Snapshot(), max(2, n/8), rng), false)
	steady := spec.Snapshot()
	for v := range steady {
		steady[v] = x.Phi(steady[v])
	}
	inject("after SetConfig(steady)", steady, true)
	if speculated == 0 {
		t.Fatal("no step was speculated")
	}
}

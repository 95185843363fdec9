package daemon_test

// The greedy adversaries score a candidate by the change it makes to the
// potential's per-vertex terms over the movers' influence rows. These
// tests pin that to the scorer it replaced — copy the configuration for
// every candidate, apply the moves, rescore the whole float potential —
// and pin the locality each term must keep for the deltas to be exact.

import (
	"math/rand"
	"slices"
	"testing"

	"specstab/internal/bfstree"
	"specstab/internal/core"
	"specstab/internal/daemon"
	"specstab/internal/dijkstra"
	"specstab/internal/graph"
	"specstab/internal/matching"
	"specstab/internal/sim"
)

// oracleScore is the whole-configuration scorer: the potential of c's
// successor under sel, with a fresh copy of c.
func oracleScore[S comparable](p sim.Protocol[S], potential func(sim.Config[S]) float64, c sim.Config[S], sel []int) float64 {
	next := c.Clone()
	for _, v := range sel {
		if r, ok := p.EnabledRule(c, v); ok {
			next[v] = p.Apply(c, v, r)
		}
	}
	return potential(next)
}

// oracleGreedy is the greedy central choice by whole-configuration scores.
func oracleGreedy[S comparable](p sim.Protocol[S], potential func(sim.Config[S]) float64, c sim.Config[S], enabled []int) []int {
	bestIdx := 0
	var bestScore float64
	for i, v := range enabled {
		score := oracleScore(p, potential, c, []int{v})
		if i == 0 || score > bestScore {
			bestScore = score
			bestIdx = i
		}
	}
	return []int{enabled[bestIdx]}
}

// oracleLookahead is the look-ahead choice by whole-configuration scores:
// singletons, the full set, then k random subsets, ties to fewer moves.
func oracleLookahead[S comparable](p sim.Protocol[S], potential func(sim.Config[S]) float64, k int, c sim.Config[S], enabled []int, rng *rand.Rand) []int {
	var (
		best      []int
		bestScore float64
	)
	consider := func(sel []int) {
		if len(sel) == 0 {
			return
		}
		score := oracleScore(p, potential, c, sel)
		if best == nil || score > bestScore || (score == bestScore && len(sel) < len(best)) {
			bestScore = score
			best = slices.Clone(sel)
		}
	}
	for _, v := range enabled {
		consider([]int{v})
	}
	if len(enabled) > 1 {
		consider(enabled)
		for i := 0; i < k; i++ {
			var subset []int
			for _, v := range enabled {
				if rng.Intn(2) == 0 {
					subset = append(subset, v)
				}
			}
			consider(subset)
		}
	}
	return best
}

// The float potentials the per-vertex terms replaced, as they were.

func unisonDisorder(p *core.Protocol) func(sim.Config[int]) float64 {
	return func(c sim.Config[int]) float64 {
		score := 0.0
		for v := 0; v < p.N(); v++ {
			if !p.Unison().LocallyLegitimate(c, v) {
				score += 1000
			}
			if c[v] < 0 {
				score += float64(-c[v])
			}
		}
		return score
	}
}

func bfsErrorMass(p *bfstree.Protocol, g *graph.Graph, root int) func(sim.Config[int]) float64 {
	return func(c sim.Config[int]) float64 {
		mass := 0.0
		for v := 0; v < g.N(); v++ {
			d := c[v] - g.Dist(root, v)
			if d < 0 {
				d = -d
			}
			mass += float64(d)
		}
		enabled := 0
		for v := 0; v < g.N(); v++ {
			if _, ok := p.EnabledRule(c, v); ok {
				enabled++
			}
		}
		return mass + float64(enabled)/float64(g.N()+1)
	}
}

func matchingProgress(p *matching.Protocol) func(sim.Config[matching.State]) float64 {
	return func(c sim.Config[matching.State]) float64 {
		score := 0.0
		for v := 0; v < p.N(); v++ {
			if _, ok := p.EnabledRule(c, v); ok {
				score++
			}
			if u := c[v].P; u != matching.Null && c[u].P != v {
				score += 0.5
			}
		}
		return score
	}
}

// undeclared hides a protocol's locality declaration: the adversaries
// then score over rows that list every vertex.
type undeclared[S comparable] struct{ sim.Protocol[S] }

// quickZoo is the topology zoo of the quick experiments.
func quickZoo() []*graph.Graph {
	return []*graph.Graph{
		graph.Ring(8),
		graph.Path(7),
		graph.Star(6),
		graph.Grid(3, 3),
		graph.RandomConnected(8, 4, rand.New(rand.NewSource(7))),
	}
}

// checkAgainstOracle drives greedy and look-ahead executions of p from
// random configurations, restarting at terminal ones, and requires both
// adversaries to choose the oracle's selection at each of 1,000 steps.
func checkAgainstOracle[S comparable](t *testing.T, name string, p sim.Protocol[S], term daemon.Potential[S], whole func(sim.Config[S]) float64) {
	t.Helper()
	const steps, subsets = 1000, 3
	kinds := map[string]struct {
		d      sim.Daemon[S]
		oracle func(c sim.Config[S], enabled []int, rng *rand.Rand) []int
	}{
		"greedy": {daemon.NewGreedyCentral(p, term), func(c sim.Config[S], enabled []int, _ *rand.Rand) []int {
			return oracleGreedy(p, whole, c, enabled)
		}},
		"lookahead": {daemon.NewLookahead(p, term, subsets), func(c sim.Config[S], enabled []int, rng *rand.Rand) []int {
			return oracleLookahead(p, whole, subsets, c, enabled, rng)
		}},
	}
	for kind, k := range kinds {
		configs := rand.New(rand.NewSource(3))
		rng, oracleRng := rand.New(sim.NewLazySource(5)), rand.New(rand.NewSource(5))
		c := sim.RandomConfig(p, configs)
		var enabled []int
		for step := 0; step < steps; {
			enabled = sim.Enabled(p, c, enabled)
			if len(enabled) == 0 {
				c = sim.RandomConfig(p, configs)
				continue
			}
			got := k.d.Select(c, enabled, rng, nil)
			want := k.oracle(c, enabled, oracleRng)
			if !slices.Equal(got, want) {
				t.Fatalf("%s/%s step %d: selected %v, the whole-configuration scorer selects %v (enabled %v)", name, kind, step, got, want, enabled)
			}
			next := c.Clone()
			for _, v := range got {
				r, _ := p.EnabledRule(c, v)
				next[v] = p.Apply(c, v, r)
			}
			c = next
			step++
		}
	}
}

// TestAdversariesMatchWholeConfigurationScorer: the per-vertex terms, the
// rescaling to integers and the local deltas leave every choice of the
// greedy and look-ahead adversaries, ties included, as the float
// potentials scored over whole configurations made it.
func TestAdversariesMatchWholeConfigurationScorer(t *testing.T) {
	t.Parallel()
	for _, g := range quickZoo() {
		ssme := core.MustNew(g)
		checkAgainstOracle(t, g.Name()+"/ssme", ssme, ssme.DisorderPotential, unisonDisorder(ssme))
		checkAgainstOracle(t, g.Name()+"/ssme-undeclared", sim.Protocol[int](undeclared[int]{ssme}), ssme.DisorderPotential, unisonDisorder(ssme))
		bfs := bfstree.MustNew(g, 0)
		checkAgainstOracle(t, g.Name()+"/bfstree", bfs, bfs.ErrorMass, bfsErrorMass(bfs, g, 0))
		mm := matching.New(g)
		checkAgainstOracle(t, g.Name()+"/matching", mm, mm.ProgressPotential, matchingProgress(mm))
	}
	dk := dijkstra.MustNew(8, 8)
	checkAgainstOracle(t, "dijkstra", dk, dk.TokenPotential, func(c sim.Config[int]) float64 { return float64(dk.TokenCount(c)) })
}

// checkTermLocality requires term(c, v) to ignore every vertex outside
// {v} ∪ Neighbors(v): each such vertex is redrawn in turn.
func checkTermLocality[S comparable](t *testing.T, name string, p sim.Protocol[S], term daemon.Potential[S]) {
	t.Helper()
	loc := sim.LocalOf(p)
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		c := sim.RandomConfig(p, rng)
		for v := 0; v < p.N(); v++ {
			reads := map[int]bool{v: true}
			for _, u := range loc.Neighbors(v) {
				reads[u] = true
			}
			want := term(c, v)
			for w := 0; w < p.N(); w++ {
				if reads[w] {
					continue
				}
				old := c[w]
				for draw := 0; draw < 4; draw++ {
					c[w] = p.RandomState(w, rng)
					if got := term(c, v); got != want {
						t.Fatalf("%s: term of %d moved from %d to %d when vertex %d, outside its read-set, changed", name, v, want, got, w)
					}
				}
				c[w] = old
			}
		}
	}
}

// TestPotentialTermsAreLocal: each protocol's term reads only the vertex
// and its declared read-set — the contract the local deltas rely on.
func TestPotentialTermsAreLocal(t *testing.T) {
	t.Parallel()
	for _, g := range quickZoo() {
		ssme := core.MustNew(g)
		checkTermLocality(t, g.Name()+"/ssme", ssme, ssme.DisorderPotential)
		bfs := bfstree.MustNew(g, 0)
		checkTermLocality(t, g.Name()+"/bfstree", bfs, bfs.ErrorMass)
		mm := matching.New(g)
		checkTermLocality(t, g.Name()+"/matching", mm, mm.ProgressPotential)
	}
	dk := dijkstra.MustNew(8, 8)
	checkTermLocality(t, "dijkstra", dk, dk.TokenPotential)
}

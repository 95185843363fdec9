package daemon_test

// Coverage for the adversarial daemons of adversarial.go: the greedy
// look-ahead and central adversaries must (1) always return a non-empty
// subset of the enabled vertices — anything else is not a legal
// ud-schedule, so the measured stabilization times would stop being sound
// lower bounds; (2) replay identically for a fixed seed; (3) actually
// maximize their potential one step ahead.

import (
	"fmt"
	"math/rand"
	"testing"

	"specstab/internal/daemon"
	"specstab/internal/dijkstra"
	"specstab/internal/graph"
	"specstab/internal/matching"
	"specstab/internal/sim"
	"specstab/internal/unison"
)

// enabledPotential counts enabled vertices — a protocol-generic badness.
func enabledPotential[S comparable](p sim.Protocol[S]) daemon.Potential[S] {
	return func(c sim.Config[S], v int) int64 {
		if _, ok := p.EnabledRule(c, v); ok {
			return 1
		}
		return 0
	}
}

// checkSubset asserts sel is a non-empty subset of enabled (both sorted
// or not; membership is what matters).
func checkSubset(t *testing.T, sel, enabled []int) {
	t.Helper()
	if len(sel) == 0 {
		t.Fatal("adversary returned an empty selection")
	}
	in := make(map[int]bool, len(enabled))
	for _, v := range enabled {
		in[v] = true
	}
	seen := make(map[int]bool, len(sel))
	for _, v := range sel {
		if !in[v] {
			t.Fatalf("adversary selected disabled vertex %d (enabled: %v)", v, enabled)
		}
		if seen[v] {
			t.Fatalf("adversary selected vertex %d twice: %v", v, sel)
		}
		seen[v] = true
	}
}

// TestLookaheadSelectsEnabledSubsets drives executions of two protocols
// under the look-ahead adversary and asserts the selection invariant at
// every step.
func TestLookaheadSelectsEnabledSubsets(t *testing.T) {
	t.Parallel()
	p := dijkstra.MustNew(8, 8)
	d := daemon.NewLookahead[int](p, enabledPotential[int](p), 3)
	rng := rand.New(rand.NewSource(5))
	cfg := sim.RandomConfig[int](p, rng)
	var enabled []int
	for step := 0; step < 120; step++ {
		enabled = sim.Enabled[int](p, cfg, enabled)
		if len(enabled) == 0 {
			break
		}
		sel := d.Select(cfg, enabled, rng, nil)
		checkSubset(t, sel, enabled)
		// Fire the selection like the engine would.
		next := cfg.Clone()
		for _, v := range sel {
			r, ok := p.EnabledRule(cfg, v)
			if !ok {
				t.Fatalf("step %d: selected vertex %d disabled", step, v)
			}
			next[v] = p.Apply(cfg, v, r)
		}
		cfg = next
	}
}

// TestLookaheadDeterministicPerSeed: with the same seed the adversary's
// whole execution replays identically; engine integration covers the
// scratch-buffer reuse.
func TestLookaheadDeterministicPerSeed(t *testing.T) {
	t.Parallel()
	g := graph.Grid(3, 3)
	u, err := unison.New(g, unison.MinimalParams(g))
	if err != nil {
		t.Fatal(err)
	}
	runOnce := func() string {
		d := daemon.NewLookahead[int](u, enabledPotential[int](u), 2)
		rng := rand.New(rand.NewSource(9))
		e := sim.MustEngine[int](u, d, sim.RandomConfig[int](u, rng), 9)
		var log []string
		e.AddHook(func(info sim.StepInfo) {
			log = append(log, fmt.Sprint(info.Activated, info.Rules))
		})
		if _, err := e.Run(80, nil); err != nil {
			t.Fatal(err)
		}
		return fmt.Sprint(log)
	}
	if runOnce() != runOnce() {
		t.Fatal("look-ahead adversary is not deterministic for a fixed seed")
	}
}

// TestGreedyCentralMaximizesPotential: the greedy central daemon must
// pick a single vertex whose one-step successor attains the maximum
// potential over all single-vertex moves.
func TestGreedyCentralMaximizesPotential(t *testing.T) {
	t.Parallel()
	p := dijkstra.MustNew(9, 9)
	pot := func(c sim.Config[int]) int { return p.TokenCount(c) }
	d := daemon.NewGreedyCentral[int](p, p.TokenPotential)
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 40; trial++ {
		cfg := sim.RandomConfig[int](p, rng)
		enabled := sim.Enabled[int](p, cfg, nil)
		if len(enabled) == 0 {
			continue
		}
		sel := d.Select(cfg, enabled, rng, nil)
		checkSubset(t, sel, enabled)
		if len(sel) != 1 {
			t.Fatalf("central daemon selected %d vertices", len(sel))
		}
		score := func(v int) int {
			next := cfg.Clone()
			r, _ := p.EnabledRule(cfg, v)
			next[v] = p.Apply(cfg, v, r)
			return pot(next)
		}
		best := score(enabled[0])
		for _, v := range enabled[1:] {
			if s := score(v); s > best {
				best = s
			}
		}
		if got := score(sel[0]); got < best {
			t.Fatalf("greedy central picked potential %v, best single move reaches %v", got, best)
		}
	}
}

// TestRulePriorityCentralOrdering: with abandonment ranked first, the
// rule-priority daemon must never fire a lower-priority rule while a
// higher-priority one is enabled somewhere.
func TestRulePriorityCentralOrdering(t *testing.T) {
	t.Parallel()
	p := matching.New(graph.Petersen())
	prio := map[sim.Rule]int{
		matching.RuleAbandonment: 0,
		matching.RuleMarriage:    1,
		matching.RuleUpdate:      2,
		matching.RuleSeduction:   3,
	}
	d := daemon.NewRulePriorityCentral[matching.State](p, prio)
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		cfg := sim.RandomConfig[matching.State](p, rng)
		enabled := sim.Enabled[matching.State](p, cfg, nil)
		if len(enabled) == 0 {
			continue
		}
		sel := d.Select(cfg, enabled, rng, nil)
		checkSubset(t, sel, enabled)
		bestPrio := int(^uint(0) >> 1)
		for _, v := range enabled {
			r, _ := p.EnabledRule(cfg, v)
			if pr, ok := prio[r]; ok && pr < bestPrio {
				bestPrio = pr
			}
		}
		r, _ := p.EnabledRule(cfg, sel[0])
		if prio[r] != bestPrio {
			t.Fatalf("rule-priority daemon fired priority %d while %d was available", prio[r], bestPrio)
		}
	}
}

// TestLookaheadTieBreaksTowardFewerMoves: on ties the adversary must
// waste as little parallelism as possible — with a constant potential
// every candidate ties, so the selection must be a singleton.
func TestLookaheadTieBreaksTowardFewerMoves(t *testing.T) {
	t.Parallel()
	p := dijkstra.MustNew(6, 6)
	d := daemon.NewLookahead[int](p, func(sim.Config[int], int) int64 { return 0 }, 4)
	rng := rand.New(rand.NewSource(2))
	cfg := sim.RandomConfig[int](p, rng)
	enabled := sim.Enabled[int](p, cfg, nil)
	if len(enabled) < 2 {
		t.Skip("need at least two enabled vertices for a tie")
	}
	sel := d.Select(cfg, enabled, rng, nil)
	checkSubset(t, sel, enabled)
	if len(sel) != 1 {
		t.Fatalf("constant potential must tie-break to a single move, got %d", len(sel))
	}
}

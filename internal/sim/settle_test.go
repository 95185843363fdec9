package sim_test

// Round settlement and the maintained enabled list, checked after every
// step against references computed from the engine's own configuration:
// the enabled list against a full guard sweep, and the round counter
// against settlement by a sorted merge of the owed list — the engine's
// settlement before owed marks. The runs cross SetConfig and
// DisableIncremental in mid-round, while the engine's owed vertices are
// marked, and rounds that end at their first step, and they reach each
// way a sparse refresh updates the enabled list: patching a few flips in
// place, and rebuilding it by a merge or a scan when many flip.

import (
	"fmt"
	"math/rand"
	"slices"
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

// mergeSettler counts rounds by merging the sorted owed list against each
// step's sorted activated list, evaluating the guard of every owed vertex
// that did not fire.
type mergeSettler[S comparable] struct {
	p      sim.Protocol[S]
	owed   []int
	rounds int
}

// charge opens a round owed by every vertex enabled in c.
func (m *mergeSettler[S]) charge(c sim.Config[S]) { m.owed = sim.Enabled(m.p, c, m.owed) }

// settle discharges the owed vertices that fired or are disabled in c, the
// configuration after the step, and reports whether a round ended.
func (m *mergeSettler[S]) settle(c sim.Config[S], activated []int) bool {
	if len(activated) == m.p.N() {
		m.rounds++
		m.charge(c)
		return true
	}
	out := m.owed[:0]
	j := 0
	for _, v := range m.owed {
		for j < len(activated) && activated[j] < v {
			j++
		}
		if j < len(activated) && activated[j] == v {
			continue
		}
		if _, ok := m.p.EnabledRule(c, v); !ok {
			continue
		}
		out = append(out, v)
	}
	m.owed = out
	if len(out) > 0 {
		return false
	}
	m.rounds++
	m.charge(c)
	return true
}

// settleCoverage counts the situations the settlement runs must reach.
type settleCoverage struct {
	markedSteps    int // steps settled against owed marks
	markedSetCfg   int // SetConfig calls while owed vertices were marked
	markedDisable  int // DisableIncremental calls while owed vertices were marked
	firstStepRound int // rounds that ended at their first step
	patched        int // sparse refreshes that patched the enabled list in place
	merged         int // sparse refreshes that rebuilt it by a merge
	scanned        int // sparse refreshes that rebuilt it by a scan of the rules
}

// countRefresh classifies one incremental sparse refresh by the rule the
// engine applies: a few flips are patched, more rebuild the list, by a
// scan when the dirty set is dense and by a merge otherwise.
func (c *settleCoverage) countRefresh(before, after []int, dirty, n int) {
	flips := 0
	for _, v := range before {
		if _, ok := slices.BinarySearch(after, v); !ok {
			flips++
		}
	}
	for _, v := range after {
		if _, ok := slices.BinarySearch(before, v); !ok {
			flips++
		}
	}
	switch {
	case flips <= sim.PatchMaxFlips:
		c.patched++
	case 4*dirty >= n:
		c.scanned++
	default:
		c.merged++
	}
}

// checkSettlement drives one engine for steps transitions, injecting a
// random configuration after a third of them and disabling incremental
// tracking after two thirds, and fails at the first step whose enabled
// list or round count departs from the references.
func checkSettlement[S comparable](t *testing.T, name string, p sim.Protocol[S], d sim.Daemon[S], seed int64, opts sim.Options, steps int, cov *settleCoverage) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	initial := sim.RandomConfig(p, rng)
	e, err := sim.NewEngineWith(p, d, initial, seed, opts)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	defer e.Close()
	ref := &mergeSettler[S]{p: p}
	ref.charge(initial)
	var fired, before []int
	dirty := -1
	e.AddHook(func(info sim.StepInfo) {
		fired = append(fired[:0], info.Activated...)
		dirty = -1
		if info.Dirty != nil {
			dirty = len(info.Dirty)
		}
	})
	roundStart := 0
	for i := 1; i <= steps; i++ {
		switch i {
		case steps / 3:
			if e.OwedMarked() > 0 {
				cov.markedSetCfg++
			}
			c := sim.RandomConfig(p, rng)
			if err := e.SetConfig(c); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			ref.charge(c)
			roundStart = e.Steps()
		case 2 * steps / 3:
			if e.OwedMarked() > 0 {
				cov.markedDisable++
			}
			e.DisableIncremental()
		}
		if e.OwedMarked() > 0 {
			cov.markedSteps++
		}
		incremental := e.Incremental()
		if incremental {
			before = append(before[:0], e.Enabled()...)
		}
		progressed, err := e.Step()
		if err != nil {
			t.Fatalf("%s step %d: %v", name, i, err)
		}
		if !progressed {
			return
		}
		c := e.Current()
		if want := sim.Enabled(p, c, nil); !slices.Equal(e.Enabled(), want) {
			t.Fatalf("%s step %d: enabled list %v, guard sweep %v", name, i, e.Enabled(), want)
		}
		if incremental && dirty >= 0 {
			cov.countRefresh(before, e.Enabled(), dirty, p.N())
		}
		if ref.settle(c, fired) {
			if roundStart == e.Steps()-1 {
				cov.firstStepRound++
			}
			roundStart = e.Steps()
		}
		if e.Rounds() != ref.rounds {
			t.Fatalf("%s step %d: engine counts %d rounds, merge settlement %d", name, i, e.Rounds(), ref.rounds)
		}
	}
}

// settleMatrix runs checkSettlement for p under every daemon family at
// Workers 1 and 4.
func settleMatrix[S comparable](t *testing.T, name string, p sim.Protocol[S], steps int, cov *settleCoverage) {
	t.Helper()
	for _, dname := range []string{"sd", "central", "min-id", "max-id", "round-robin", "distributed", "greedy", "lookahead"} {
		mk := daemonMatrix(p)[dname]
		for _, opts := range []sim.Options{{Workers: 1}, {Workers: 4, ShardSize: 2}} {
			for seed := int64(1); seed <= 2; seed++ {
				checkSettlement(t, fmt.Sprintf("%s/%s/w%d/seed%d", name, dname, opts.Workers, seed), p, mk(), seed, opts, steps, cov)
			}
		}
	}
}

// TestSettlementMatchesMergeReference pins the marked round settlement and
// the in-place enabled list to their references over the protocols of the
// differential matrix, at sizes where a central step's dirty set stays
// sparse and at the small sizes where every refresh is dense.
func TestSettlementMatchesMergeReference(t *testing.T) {
	t.Parallel()
	var cov settleCoverage
	ring, grid := graph.Ring(7), graph.Grid(3, 3)
	bigRing, bigGrid := graph.Ring(40), graph.Grid(6, 6)
	uni, err := unison.New(ring, unison.MinimalParams(ring))
	if err != nil {
		t.Fatal(err)
	}
	uniBig, err := unison.New(bigRing, unison.MinimalParams(bigRing))
	if err != nil {
		t.Fatal(err)
	}
	settleMatrix[int](t, "dijkstra", dijkstra.MustNew(7, 7), 150, &cov)
	settleMatrix[int](t, "ssme", core.MustNew(ring), 150, &cov)
	settleMatrix[int](t, "unison", uni, 150, &cov)
	settleMatrix[int](t, "lexclusion", lexclusion.MustNew(grid, 2), 150, &cov)
	settleMatrix[int](t, "dijkstra-sparse", dijkstra.MustNew(40, 40), 150, &cov)
	settleMatrix[int](t, "ssme-sparse", core.MustNew(bigRing), 150, &cov)
	settleMatrix[int](t, "unison-sparse", uniBig, 150, &cov)
	settleMatrix[int](t, "bfstree-sparse", bfstree.MustNew(bigGrid, 0), 150, &cov)
	settleMatrix[matching.State](t, "matching-sparse", matching.New(bigGrid), 150, &cov)
	settleMatrix[compose.Pair[int, int]](t, "product-sparse",
		compose.MustNew[int, int](uniBig, bfstree.MustNew(bigRing, 0)), 120, &cov)
	// Many flips per sparse step: a sparse distributed daemon on random
	// 400-vertex rings (merges), and central moves at the centre of a
	// star, which dirty every vertex (scans).
	for seed := int64(1); seed <= 2; seed++ {
		for _, opts := range []sim.Options{{Workers: 1}, {Workers: 4, ShardSize: 2}} {
			dist := daemon.NewDistributed[int](0.03)
			checkSettlement[int](t, fmt.Sprintf("dijkstra-400/distributed/w%d/seed%d", opts.Workers, seed),
				dijkstra.MustNew(400, 400), dist, seed, opts, 150, &cov)
			checkSettlement[int](t, fmt.Sprintf("ssme-ring-400/distributed/w%d/seed%d", opts.Workers, seed),
				core.MustNew(graph.Ring(400)), dist, seed, opts, 150, &cov)
			checkSettlement[int](t, fmt.Sprintf("ssme-star-40/central/w%d/seed%d", opts.Workers, seed),
				core.MustNew(graph.Star(40)), daemon.NewRandomCentral[int](), seed, opts, 300, &cov)
		}
	}
	t.Logf("coverage: %+v", cov)
	if cov.markedSteps == 0 || cov.markedSetCfg == 0 || cov.markedDisable == 0 || cov.firstStepRound == 0 ||
		cov.patched == 0 || cov.merged == 0 || cov.scanned == 0 {
		t.Fatalf("the runs missed a settlement case: %+v", cov)
	}
}

// TestSettlementOneStepRounds: rounds that end at their first step are
// settled by the merge alone and never mark. Every synchronous round is
// one (sd fires every owed vertex), dense fused steps and sparse general
// ones alike; and a legitimate Dijkstra ring under a central daemon has
// one token, so every round owes one vertex.
func TestSettlementOneStepRounds(t *testing.T) {
	t.Parallel()
	const n = 40
	dij := dijkstra.MustNew(n, n)
	ssme := core.MustNew(graph.Ring(n))
	cases := []struct {
		name    string
		p       sim.Protocol[int]
		d       func() sim.Daemon[int]
		initial sim.Config[int]
	}{
		{"dijkstra/central", dij, func() sim.Daemon[int] { return daemon.NewRandomCentral[int]() }, make(sim.Config[int], n)},
		{"dijkstra/sd", dij, func() sim.Daemon[int] { return daemon.NewSynchronous[int]() }, sim.RandomConfig[int](dij, rand.New(rand.NewSource(1)))},
		{"ssme/sd", ssme, func() sim.Daemon[int] { return daemon.NewSynchronous[int]() }, sim.RandomConfig[int](ssme, rand.New(rand.NewSource(1)))},
	}
	for _, c := range cases {
		for _, opts := range []sim.Options{{Workers: 1}, {Workers: 4, ShardSize: 2}} {
			e, err := sim.NewEngineWith(c.p, c.d(), c.initial, 1, opts)
			if err != nil {
				t.Fatal(err)
			}
			for i := 1; i <= 3*n; i++ {
				if _, err := e.Step(); err != nil {
					t.Fatal(err)
				}
				if e.OwedMarked() != 0 {
					t.Fatalf("%s/w%d step %d: %d owed vertices marked in a one-step round", c.name, opts.Workers, i, e.OwedMarked())
				}
				if e.Rounds() != i {
					t.Fatalf("%s/w%d step %d: %d rounds, want one per step", c.name, opts.Workers, i, e.Rounds())
				}
			}
			e.Close()
		}
	}
}

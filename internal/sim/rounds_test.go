package sim_test

// Round accounting checked against its definition rather than against
// another engine: a round ends at the first step after which every vertex
// enabled at the round's start has fired or is observed disabled. The
// differential matrices compare backends with each other, so a shared
// settlement shortcut would go unseen there; this reference recomputes
// the counter from the configuration alone.

import (
	"fmt"
	"math/rand"
	"testing"

	"specstab/internal/core"
	"specstab/internal/daemon"
	"specstab/internal/dijkstra"
	"specstab/internal/graph"
	"specstab/internal/sim"
)

// allButOne fires every enabled vertex except the largest — one short of
// a full synchronous step, the edge of the engine's all-fired shortcut.
type allButOne struct{}

func (allButOne) Name() string { return "all-but-one" }
func (allButOne) Select(_ sim.Config[int], e []int, _ *rand.Rand) []int {
	if len(e) > 1 {
		return e[:len(e)-1]
	}
	return e
}

// checkRoundsByDefinition runs e for at most steps transitions and
// compares e.Rounds() after every step with a counter kept from the
// definition, over a map of owed vertices.
func checkRoundsByDefinition(t *testing.T, p sim.Protocol[int], e *sim.Engine[int], steps int) {
	t.Helper()
	owed := map[int]bool{}
	charge := func() {
		c := e.Current()
		for v := 0; v < p.N(); v++ {
			if _, ok := p.EnabledRule(c, v); ok {
				owed[v] = true
			}
		}
	}
	charge()
	var fired []int
	e.AddHook(func(info sim.StepInfo) { fired = append(fired[:0], info.Activated...) })
	rounds := 0
	for i := 1; i <= steps; i++ {
		progressed, err := e.Step()
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		if !progressed {
			return
		}
		for _, v := range fired {
			delete(owed, v)
		}
		c := e.Current()
		for v := range owed {
			if _, ok := p.EnabledRule(c, v); !ok {
				delete(owed, v)
			}
		}
		if len(owed) == 0 {
			rounds++
			charge()
		}
		if e.Rounds() != rounds {
			t.Fatalf("step %d: engine counts %d rounds, definition %d", i, e.Rounds(), rounds)
		}
	}
}

func TestRoundsMatchDefinition(t *testing.T) {
	t.Parallel()
	protocols := map[string]sim.Protocol[int]{
		"unison": unisonRing(t, 12),
		"ssme":   core.MustNew(graph.Ring(9)),
		"dijkstra": func() sim.Protocol[int] {
			p, err := dijkstra.New(7, 8)
			if err != nil {
				t.Fatal(err)
			}
			return p
		}(),
	}
	daemons := map[string]func() sim.Daemon[int]{
		"sd":          func() sim.Daemon[int] { return daemon.NewSynchronous[int]() },
		"all-but-one": func() sim.Daemon[int] { return allButOne{} },
		"central":     func() sim.Daemon[int] { return daemon.NewRandomCentral[int]() },
		"distributed": func() sim.Daemon[int] { return daemon.NewDistributed[int](0.9) },
	}
	backends := map[string]sim.Options{
		"generic":    {Backend: sim.BackendGeneric, Workers: 1},
		"flat/w1":    {Backend: sim.BackendFlat, Workers: 1},
		"flat/w4/s2": {Backend: sim.BackendFlat, Workers: 4, ShardSize: 2},
	}
	for pn, p := range protocols {
		for dn, mk := range daemons {
			for bn, opts := range backends {
				for seed := int64(1); seed <= 3; seed++ {
					initial := sim.RandomConfig(p, rand.New(rand.NewSource(seed)))
					e, err := sim.NewEngineWith(p, mk(), initial, seed, opts)
					if err != nil {
						t.Fatalf("%s/%s/%s: %v", pn, dn, bn, err)
					}
					t.Run(fmt.Sprintf("%s/%s/%s/seed%d", pn, dn, bn, seed), func(t *testing.T) {
						checkRoundsByDefinition(t, p, e, 300)
					})
					e.Close()
				}
			}
		}
	}
}

package faults

import (
	"math/rand"
	"testing"

	"specstab/internal/core"
	"specstab/internal/daemon"
	"specstab/internal/dijkstra"
	"specstab/internal/graph"
	"specstab/internal/sim"
)

func TestSSMERecoversFromRepeatedBursts(t *testing.T) {
	t.Parallel()
	for _, g := range []*graph.Graph{graph.Ring(8), graph.Grid(3, 4), graph.Star(7)} {
		p := core.MustNew(g)
		sc := Scenario[int]{
			Protocol:     p,
			NewDaemon:    func() sim.Daemon[int] { return daemon.NewSynchronous[int]() },
			Legit:        p.Legitimate,
			Safe:         p.SafeME,
			HorizonSteps: p.ServiceWindow(),
		}
		initial := sim.RandomConfig[int](p, rand.New(rand.NewSource(5)))
		bursts := []Burst{
			{AfterSteps: 10, CorruptVertices: g.N()},     // total corruption
			{AfterSteps: 3, CorruptVertices: g.N() / 2},  // half the system
			{AfterSteps: 0, CorruptVertices: 1},          // immediately, one register
			{AfterSteps: 25, CorruptVertices: g.N() * 2}, // clamped to n
		}
		recs, err := sc.Run(initial, bursts, 7)
		if err != nil {
			t.Fatalf("%s: %v", g.Name(), err)
		}
		if len(recs) != len(bursts) {
			t.Fatalf("%s: %d recoveries for %d bursts", g.Name(), len(recs), len(bursts))
		}
		for i, rec := range recs {
			if !rec.Recovered {
				t.Errorf("%s burst %d: did not re-stabilize", g.Name(), i)
			}
			if rec.ViolationAfterLegit {
				t.Errorf("%s burst %d: closure broken after recovery", g.Name(), i)
			}
			if rec.StepsToLegit > p.SyncUnisonHorizon() {
				t.Errorf("%s burst %d: recovery took %d steps > 2n+diam = %d",
					g.Name(), i, rec.StepsToLegit, p.SyncUnisonHorizon())
			}
		}
	}
}

func TestRecoveryUnderUnfairDaemons(t *testing.T) {
	t.Parallel()
	g := graph.Ring(7)
	p := core.MustNew(g)
	sc := Scenario[int]{
		Protocol:     p,
		NewDaemon:    func() sim.Daemon[int] { return daemon.NewDistributed[int](0.4) },
		Legit:        p.Legitimate,
		Safe:         p.SafeME,
		HorizonSteps: p.UnfairBoundMoves(),
	}
	initial := sim.RandomConfig[int](p, rand.New(rand.NewSource(9)))
	recs, err := sc.Run(initial, []Burst{
		{AfterSteps: 5, CorruptVertices: 7},
		{AfterSteps: 5, CorruptVertices: 3},
	}, 11)
	if err != nil {
		t.Fatal(err)
	}
	for i, rec := range recs {
		if !rec.Recovered || rec.ViolationAfterLegit {
			t.Errorf("burst %d: recovered=%v closureBroken=%v", i, rec.Recovered, rec.ViolationAfterLegit)
		}
	}
}

func TestDijkstraRecoversToo(t *testing.T) {
	t.Parallel()
	p := dijkstra.MustNew(6, 6)
	sc := Scenario[int]{
		Protocol:     p,
		NewDaemon:    func() sim.Daemon[int] { return daemon.NewRandomCentral[int]() },
		Legit:        p.Legitimate,
		Safe:         p.SafeME,
		HorizonSteps: p.UnfairHorizonMoves(),
	}
	initial := make(sim.Config[int], 6) // uniform zeros: already legitimate
	recs, err := sc.Run(initial, []Burst{{AfterSteps: 4, CorruptVertices: 6}}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !recs[0].Recovered {
		t.Error("Dijkstra did not recover from a full corruption")
	}
}

func TestScenarioValidation(t *testing.T) {
	t.Parallel()
	var sc Scenario[int]
	if _, err := sc.Run(nil, nil, 1); err == nil {
		t.Error("want error for missing fields")
	}
}

func TestZeroBurstsMeansNoRecoveries(t *testing.T) {
	t.Parallel()
	g := graph.Ring(6)
	p := core.MustNew(g)
	sc := Scenario[int]{
		Protocol:     p,
		NewDaemon:    func() sim.Daemon[int] { return daemon.NewSynchronous[int]() },
		Legit:        p.Legitimate,
		HorizonSteps: p.ServiceWindow(),
	}
	recs, err := sc.Run(sim.RandomConfig[int](p, rand.New(rand.NewSource(1))), nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Errorf("expected no recoveries, got %d", len(recs))
	}
}

func TestScenarioDeterministicForSeed(t *testing.T) {
	t.Parallel()
	g := graph.Ring(6)
	p := core.MustNew(g)
	sc := Scenario[int]{
		Protocol:     p,
		NewDaemon:    func() sim.Daemon[int] { return daemon.NewDistributed[int](0.5) },
		Legit:        p.Legitimate,
		Safe:         p.SafeME,
		HorizonSteps: p.UnfairBoundMoves(),
	}
	initial := sim.RandomConfig[int](p, rand.New(rand.NewSource(4)))
	bursts := []Burst{{AfterSteps: 3, CorruptVertices: 6}, {AfterSteps: 3, CorruptVertices: 2}}
	a, err := sc.Run(initial, bursts, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sc.Run(initial, bursts, 42)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("burst %d: recoveries differ for identical seeds: %+v vs %+v", i, a[i], b[i])
		}
	}
}

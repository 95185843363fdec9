package scenario_test

// Differential tests: a scenario-built run must replay the hand-built
// construction it replaced bit for bit — same steps, moves, rounds and
// final configuration. This is the contract that let the cmd/ drivers and
// the experiment harness move onto the scenario layer without changing a
// byte of output.

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"

	"specstab/internal/core"
	"specstab/internal/daemon"
	"specstab/internal/scenario"
	"specstab/internal/service"
	"specstab/internal/sim"
)

// fingerprint mirrors the Probes hash so hand-built engines can be
// compared against scenario-built runs.
func fingerprint[S comparable](c sim.Config[S]) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%v", c)
	return h.Sum64()
}

func TestScenarioMatchesHandBuiltEngine(t *testing.T) {
	t.Parallel()
	daemons := []string{"sync", "central", "roundrobin", "distributed"}
	for _, dn := range daemons {
		// Hand-built: the construction cmd/ssme used before the refactor.
		g, err := scenario.BuildTopology(scenario.TopologySpec{Name: "grid", N: 12}, 5)
		if err != nil {
			t.Fatal(err)
		}
		p, err := core.New(g)
		if err != nil {
			t.Fatal(err)
		}
		var d sim.Daemon[int]
		switch dn {
		case "sync":
			d = daemon.NewSynchronous[int]()
		case "central":
			d = daemon.NewRandomCentral[int]()
		case "roundrobin":
			d = daemon.NewRoundRobin[int](g.N())
		case "distributed":
			d = daemon.NewDistributed[int](0.5)
		}
		initial := sim.RandomConfig[int](p, rand.New(rand.NewSource(5)))
		eng, err := sim.NewEngine[int](p, d, initial, 5)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 200; i++ {
			if _, err := eng.Step(); err != nil {
				t.Fatal(err)
			}
		}

		// Scenario-built: the same cell as data.
		sc := &scenario.Scenario{
			Seed:     5,
			Protocol: scenario.ProtocolSpec{Name: "ssme"},
			Topology: scenario.TopologySpec{Name: "grid", N: 12},
			Daemon:   scenario.DaemonSpec{Name: dn, P: 0.5},
			Init:     scenario.InitSpec{Mode: "random"},
			Stop:     scenario.StopSpec{Steps: 200},
		}
		run, err := scenario.Build(sc)
		if err != nil {
			t.Fatal(err)
		}
		if err := run.Execute(); err != nil {
			t.Fatal(err)
		}

		if run.Engine().Steps() != eng.Steps() || run.Engine().Moves() != eng.Moves() ||
			run.Engine().Rounds() != eng.Rounds() {
			t.Fatalf("%s: scenario run (%d steps, %d moves, %d rounds) != hand-built (%d, %d, %d)",
				dn, run.Engine().Steps(), run.Engine().Moves(), run.Engine().Rounds(),
				eng.Steps(), eng.Moves(), eng.Rounds())
		}
		if got, want := run.Probes().Fingerprint(), fingerprint(eng.Current()); got != want {
			t.Fatalf("%s: configuration fingerprints diverge: scenario %x, hand-built %x", dn, got, want)
		}
	}
}

func TestScenarioMatchesHandBuiltService(t *testing.T) {
	t.Parallel()
	// Hand-built: the construction cmd/locksim used before the refactor.
	n := 9
	g, err := scenario.BuildTopology(scenario.TopologySpec{Name: "ring", N: n}, 2)
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.New(g)
	if err != nil {
		t.Fatal(err)
	}
	wl, err := service.NewClosedLoop(n, 2*n, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := service.New(p, daemon.NewDistributed[int](0.5), make(sim.Config[int], n), 2, wl,
		service.Options{Hold: 2, Capacity: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Run(400); err != nil {
		t.Fatal(err)
	}

	sc := &scenario.Scenario{
		Seed:     2,
		Protocol: scenario.ProtocolSpec{Name: "ssme"},
		Topology: scenario.TopologySpec{Name: "ring", N: n},
		Daemon:   scenario.DaemonSpec{Name: "distributed", P: 0.5},
		Workload: &scenario.WorkloadSpec{Kind: "closed", ThinkMax: 3, Hold: 2},
		Stop:     scenario.StopSpec{Ticks: 400},
	}
	run, err := scenario.Build(sc)
	if err != nil {
		t.Fatal(err)
	}
	if err := run.Execute(); err != nil {
		t.Fatal(err)
	}

	if got, want := run.Service().Grants(), svc.Grants(); got != want {
		t.Fatalf("grants diverge: scenario %d, hand-built %d", got, want)
	}
	if got, want := run.Service().Ticks(), svc.Ticks(); got != want {
		t.Fatalf("ticks diverge: scenario %d, hand-built %d", got, want)
	}
	if got, want := run.Service().Totals().Render(), svc.Totals().Render(); got != want {
		t.Fatalf("metric totals diverge:\nscenario:\n%s\nhand-built:\n%s", got, want)
	}
	if got, want := run.Probes().Fingerprint(), fingerprint(svc.Engine().Current()); got != want {
		t.Fatalf("configuration fingerprints diverge: scenario %x, hand-built %x", got, want)
	}
}

// TestScenarioBackendsAgree: one scenario, every worker choice, identical
// fingerprints — the engine's determinism contract surviving the
// declarative layer.
func TestScenarioBackendsAgree(t *testing.T) {
	t.Parallel()
	var prints []uint64
	for _, w := range []int{1, 4, 8} {
		sc := &scenario.Scenario{
			Seed:     9,
			Protocol: scenario.ProtocolSpec{Name: "ssme"},
			Topology: scenario.TopologySpec{Name: "ring", N: 16},
			Daemon:   scenario.DaemonSpec{Name: "distributed", P: 0.3},
			Engine:   scenario.EngineSpec{Workers: w},
			Init:     scenario.InitSpec{Mode: "random"},
			Stop:     scenario.StopSpec{Steps: 150},
		}
		run, err := scenario.Build(sc)
		if err != nil {
			t.Fatal(err)
		}
		if err := run.Execute(); err != nil {
			t.Fatal(err)
		}
		prints = append(prints, run.Probes().Fingerprint())
	}
	for i := 1; i < len(prints); i++ {
		if prints[i] != prints[0] {
			t.Fatalf("fingerprints diverge across worker counts: %x", prints)
		}
	}
}

package scenario_test

// The registry × workers differential matrix: every protocol constructor
// registered in the scenario registry is driven through the same scenario
// on 1 worker and on 8 workers, and the executions must agree exactly —
// steps, moves, rounds and the configuration fingerprint. This is the machine-checked coupling the
// capability analyzer (internal/lint) enforces: a protocol that scenarios
// can name but this matrix does not exercise fails `speclint ./...`.

import (
	"fmt"
	"testing"

	"specstab/internal/scenario"
)

// matrixCases names one scenario cell per registered protocol. Keep this
// table in sync with the registry — the capability analyzer checks that
// every registry name appears in this file.
var matrixCases = []struct {
	label    string
	protocol scenario.ProtocolSpec
	topology scenario.TopologySpec
}{
	{"ssme", scenario.ProtocolSpec{Name: "ssme"}, scenario.TopologySpec{Name: "grid", N: 12}},
	{"unison", scenario.ProtocolSpec{Name: "unison"}, scenario.TopologySpec{Name: "ring", N: 12}},
	{"unison-minimal", scenario.ProtocolSpec{Name: "unison", Minimal: true}, scenario.TopologySpec{Name: "path", N: 9}},
	{"dijkstra", scenario.ProtocolSpec{Name: "dijkstra"}, scenario.TopologySpec{Name: "ring", N: 11}},
	{"bfstree", scenario.ProtocolSpec{Name: "bfstree"}, scenario.TopologySpec{Name: "randtree", N: 14}},
	{"matching", scenario.ProtocolSpec{Name: "matching"}, scenario.TopologySpec{Name: "randconn", N: 12}},
	{"lexclusion", scenario.ProtocolSpec{Name: "lexclusion", L: 2}, scenario.TopologySpec{Name: "ring", N: 12}},
	{"product", scenario.ProtocolSpec{Name: "product", Factors: []scenario.ProtocolSpec{
		{Name: "unison"}, {Name: "dijkstra"},
	}}, scenario.TopologySpec{Name: "ring", N: 10}},
}

// runCell builds and executes one scenario cell and returns its observable
// outcome.
func runCell(t *testing.T, protocol scenario.ProtocolSpec, topology scenario.TopologySpec,
	daemon string, engine scenario.EngineSpec) (steps, moves, rounds int, fp uint64) {
	t.Helper()
	sc := &scenario.Scenario{
		Seed:     7,
		Protocol: protocol,
		Topology: topology,
		Daemon:   scenario.DaemonSpec{Name: daemon, P: 0.5},
		Engine:   engine,
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
	return run.Engine().Steps(), run.Engine().Moves(), run.Engine().Rounds(), run.Probes().Fingerprint()
}

func TestRegistryBackendDifferentialMatrix(t *testing.T) {
	t.Parallel()
	for _, tc := range matrixCases {
		tc := tc
		for _, daemon := range []string{"sync", "distributed"} {
			daemon := daemon
			t.Run(fmt.Sprintf("%s/%s", tc.label, daemon), func(t *testing.T) {
				t.Parallel()
				sSteps, sMoves, sRounds, sFP := runCell(t, tc.protocol, tc.topology, daemon,
					scenario.EngineSpec{Workers: 1})
				pSteps, pMoves, pRounds, pFP := runCell(t, tc.protocol, tc.topology, daemon,
					scenario.EngineSpec{Workers: 8})
				if sSteps != pSteps || sMoves != pMoves || sRounds != pRounds {
					t.Fatalf("worker counts diverge: 1 worker (%d steps, %d moves, %d rounds) vs 8 (%d, %d, %d)",
						sSteps, sMoves, sRounds, pSteps, pMoves, pRounds)
				}
				if sFP != pFP {
					t.Fatalf("configuration fingerprints diverge: 1 worker %x, 8 workers %x", sFP, pFP)
				}
			})
		}
	}
}

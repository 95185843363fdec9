package check

import (
	"reflect"
	"testing"

	"specstab/internal/core"
	"specstab/internal/dijkstra"
	"specstab/internal/graph"
	"specstab/internal/matching"
	"specstab/internal/sim"
)

// Full Exhaustive reports, witnesses included, recorded from the
// map-keyed DFS the dense index replaced. A non-converging report keeps
// the counters of the configurations enumerated up to the cycle, so these
// also pin the enumeration order and the DFS's child order.

func TestExhaustiveGoldenSSME(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		name    string
		g       *graph.Graph
		central bool
		closure bool
		want    Report[int]
	}{
		{"ring-3 ud", graph.Ring(3), false, true, Report[int]{
			Configs: 3375, LegitCount: 84, WorstSteps: 12, WorstMoves: 12, WorstConfig: sim.Config[int]{3, 1, 1}}},
		{"ring-3 cd", graph.Ring(3), true, true, Report[int]{
			Configs: 3375, LegitCount: 84, WorstSteps: 12, WorstMoves: 12, WorstConfig: sim.Config[int]{3, 1, 1}}},
		{"path-3 ud", graph.Path(3), false, false, Report[int]{
			Configs: 8000, LegitCount: 153, WorstSteps: 15, WorstMoves: 15, WorstConfig: sim.Config[int]{3, 1, 0}}},
	} {
		p := core.MustNew(tc.g)
		got, err := Exhaustive[int](p, Options[int]{
			Domain:       func(int) []int { return p.Clock().Values() },
			Legit:        p.Legitimate,
			Safe:         p.SafeME,
			Central:      tc.central,
			CheckClosure: tc.closure,
		})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: got %+v, want %+v", tc.name, got, tc.want)
		}
	}
}

func TestExhaustiveGoldenDijkstra(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		k    int
		want Report[int]
	}{
		{2, Report[int]{Configs: 3, LegitCount: 2,
			NonConverging: true, CycleWitness: sim.Config[int]{0, 1, 0, 0}}},
		{3, Report[int]{Configs: 16, LegitCount: 6, WorstSteps: 11, WorstMoves: 12, WorstConfig: sim.Config[int]{0, 1, 0, 0},
			NonConverging: true, CycleWitness: sim.Config[int]{0, 2, 1, 0}}},
		{4, Report[int]{Configs: 256, LegitCount: 40, WorstSteps: 13, WorstMoves: 17, WorstConfig: sim.Config[int]{0, 2, 1, 0}}},
		{5, Report[int]{Configs: 625, LegitCount: 65, WorstSteps: 13, WorstMoves: 17, WorstConfig: sim.Config[int]{0, 2, 1, 0}}},
	} {
		p, err := dijkstra.NewUnchecked(4, tc.k)
		if err != nil {
			t.Fatal(err)
		}
		dom := make([]int, tc.k)
		for i := range dom {
			dom[i] = i
		}
		got, err := Exhaustive[int](p, Options[int]{
			Domain: func(int) []int { return dom },
			Legit:  p.Legitimate,
			Safe:   p.SafeME,
		})
		if err != nil {
			t.Fatalf("K=%d: %v", tc.k, err)
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("K=%d: got %+v, want %+v", tc.k, got, tc.want)
		}
	}
}

// Legitimacy predicates chosen to drive the counters the protocols' own
// predicates keep at zero.
func TestExhaustiveGoldenCounters(t *testing.T) {
	t.Parallel()
	// A single token at vertex 0: the token moves on, so every
	// legitimate configuration breaks closure.
	p := dijkstra.MustNew(4, 5)
	for _, tc := range []struct {
		central bool
		want    Report[int]
	}{
		{false, Report[int]{Configs: 625, LegitCount: 5, ClosureViolations: 5, WorstSteps: 15, WorstMoves: 18,
			WorstConfig: sim.Config[int]{0, 2, 1, 0}}},
		{true, Report[int]{Configs: 625, LegitCount: 5, ClosureViolations: 5, WorstSteps: 15, WorstMoves: 15,
			WorstConfig: sim.Config[int]{0, 2, 1, 0}}},
	} {
		got, err := Exhaustive[int](p, Options[int]{
			Domain:       func(int) []int { return []int{0, 1, 2, 3, 4} },
			Legit:        func(c sim.Config[int]) bool { return p.Legitimate(c) && p.Privileged(c, 0) },
			Safe:         p.SafeME,
			Central:      tc.central,
			CheckClosure: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("dijkstra token at 0, central=%v: got %+v, want %+v", tc.central, got, tc.want)
		}
	}

	// Nothing is legitimate: every execution ends in one of the maximal
	// matchings, each a deadlock, and the worst case is the longest
	// execution.
	never := func(sim.Config[matching.State]) bool { return false }
	for _, tc := range []struct {
		g       *graph.Graph
		central bool
		want    Report[matching.State]
	}{
		{graph.Complete(3), false, Report[matching.State]{Configs: 216, DeadlockCount: 3, WorstSteps: 12, WorstMoves: 12,
			WorstConfig: sim.Config[matching.State]{{P: 1, M: true}, {P: 2, M: true}, {P: 0, M: true}}}},
		{graph.Path(4), false, Report[matching.State]{Configs: 576, DeadlockCount: 2, WorstSteps: 16, WorstMoves: 17,
			WorstConfig: sim.Config[matching.State]{{P: 1, M: true}, {P: 2, M: true}, {P: 3, M: true}, {P: matching.Null, M: true}}}},
		{graph.Path(4), true, Report[matching.State]{Configs: 576, DeadlockCount: 2, WorstSteps: 15, WorstMoves: 15,
			WorstConfig: sim.Config[matching.State]{{P: 1, M: true}, {P: 2, M: true}, {P: 3, M: true}, {P: matching.Null, M: true}}}},
	} {
		got, err := Exhaustive[matching.State](matching.New(tc.g), Options[matching.State]{
			Domain:  matchingDomain(tc.g),
			Legit:   never,
			Central: tc.central,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("matching %s never legitimate, central=%v: got %+v, want %+v", tc.g.Name(), tc.central, got, tc.want)
		}
	}
}

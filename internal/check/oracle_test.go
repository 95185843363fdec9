package check

import (
	"reflect"
	"testing"

	"specstab/internal/bfstree"
	"specstab/internal/core"
	"specstab/internal/daemon"
	"specstab/internal/graph"
	"specstab/internal/matching"
	"specstab/internal/sim"
)

// syncWorstOracle is SyncWorst by brute force: a fresh engine under the
// synchronous daemon and sim.MeasureConvergence from every configuration,
// enumerated by an odometer turning vertex 0 fastest. It also returns
// each start's run in enumeration order. SyncWorst's table walk must
// report exactly what it reports.
func syncWorstOracle[S comparable](t *testing.T, p sim.Protocol[S], opt SyncOptions[S]) (SyncReport[S], []sim.RunReport) {
	t.Helper()
	var rep SyncReport[S]
	var runs []sim.RunReport
	n := p.N()
	domains := make([][]S, n)
	for v := range domains {
		domains[v] = opt.Domain(v)
	}
	idx := make([]int, n)
	cfg := make(sim.Config[S], n)
	for v := range cfg {
		cfg[v] = domains[v][0]
	}
	for {
		rep.Configs++
		e, err := sim.NewEngine(p, daemon.NewSynchronous[S](), cfg, 1)
		if err != nil {
			t.Fatal(err)
		}
		run, err := sim.MeasureConvergence(e, opt.Horizon, opt.Safe, opt.Legit)
		if err != nil {
			t.Fatal(err)
		}
		runs = append(runs, run)
		if run.ConvergenceSteps > rep.WorstSteps {
			rep.WorstSteps = run.ConvergenceSteps
			rep.WorstConfig = cfg.Clone()
		}
		if opt.Legit != nil && run.FirstLegitStep > rep.WorstLegitEntry {
			rep.WorstLegitEntry = run.FirstLegitStep
		}
		v := 0
		for ; v < n; v++ {
			idx[v]++
			if idx[v] < len(domains[v]) {
				cfg[v] = domains[v][idx[v]]
				break
			}
			idx[v] = 0
			cfg[v] = domains[v][0]
		}
		if v == n {
			return rep, runs
		}
	}
}

func checkSyncAgainstOracle[S comparable](t *testing.T, name string, p sim.Protocol[S], opt SyncOptions[S]) {
	t.Helper()
	got, err := SyncWorst(p, opt)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	want, runs := syncWorstOracle(t, p, opt)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s: SyncWorst = %+v, the engine sweep reports %+v", name, got, want)
	}
	// The maxima hide most runs; compare every start's run as well.
	w, err := newSyncWalker(p, opt)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	for i, run := range runs {
		conv, firstLegit := w.walk(int32(i))
		if conv != run.ConvergenceSteps || firstLegit != run.FirstLegitStep {
			t.Fatalf("%s: start %d walks to convergence %d, first legitimate step %d; the engine reports %d, %d",
				name, i, conv, firstLegit, run.ConvergenceSteps, run.FirstLegitStep)
		}
	}
}

func TestSyncWorstMatchesEngineSweep(t *testing.T) {
	t.Parallel()
	ssme := func(g *graph.Graph, horizon int) (*core.Protocol, SyncOptions[int]) {
		p := core.MustNew(g)
		if horizon == 0 {
			horizon = p.ServiceWindow()
		}
		return p, SyncOptions[int]{
			Domain:  func(int) []int { return p.Clock().Values() },
			Safe:    p.SafeME,
			Legit:   p.Legitimate,
			Horizon: horizon,
		}
	}
	for _, tc := range []struct {
		name    string
		g       *graph.Graph
		horizon int
	}{
		{"ring-3", graph.Ring(3), 0},
		{"path-3", graph.Path(3), 0},
		// Runs cut off before they converge.
		{"ring-3 horizon 1", graph.Ring(3), 1},
		{"ring-3 horizon 3", graph.Ring(3), 3},
	} {
		p, opt := ssme(tc.g, tc.horizon)
		checkSyncAgainstOracle(t, "SSME "+tc.name, p, opt)
	}

	// min+1 on [0,4]^4 leaves the domain and reaches terminal
	// configurations.
	bfs := bfstree.MustNew(graph.Path(4), 0)
	bfsOpt := SyncOptions[int]{
		Domain:  func(int) []int { return []int{0, 1, 2, 3, 4} },
		Safe:    bfs.Correct,
		Horizon: bfs.SyncHorizon(),
	}
	w, err := newSyncWalker[int](bfs, bfsOpt)
	if err != nil {
		t.Fatal(err)
	}
	sentinels := map[int32]int{}
	for _, s := range w.succ {
		if s < 0 {
			sentinels[s]++
		}
	}
	if sentinels[outside] == 0 || sentinels[terminal] == 0 {
		t.Errorf("BFS P4 table: %d outside and %d terminal successors, want both", sentinels[outside], sentinels[terminal])
	}
	checkSyncAgainstOracle(t, "BFS P4", bfs, bfsOpt)
	// The same runs judged by the inverted predicate: the correct
	// fixpoints a run stops on are unsafe, and so are the out-of-domain
	// configurations' correct successors, so every step counts.
	bfsOpt.Safe = func(c sim.Config[int]) bool { return !bfs.Correct(c) }
	checkSyncAgainstOracle(t, "BFS P4 inverted", bfs, bfsOpt)
	bfsOpt.Horizon = 3
	checkSyncAgainstOracle(t, "BFS P4 inverted, horizon 3", bfs, bfsOpt)

	// A struct state type.
	k3 := graph.Complete(3)
	mp := matching.New(k3)
	checkSyncAgainstOracle(t, "matching K3", mp, SyncOptions[matching.State]{
		Domain: matchingDomain(k3),
		Safe: func(c sim.Config[matching.State]) bool {
			return sim.Terminal[matching.State](mp, c) && mp.IsMaximalMatching(c)
		},
		Legit:   mp.IsMaximalMatching,
		Horizon: mp.SyncBoundSteps() + 8,
	})
}

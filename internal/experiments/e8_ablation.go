package experiments

import (
	"fmt"

	"specstab/internal/check"
	"specstab/internal/core"
	"specstab/internal/daemon"
	"specstab/internal/dijkstra"
	"specstab/internal/graph"
	"specstab/internal/sim"
	"specstab/internal/stats"
	"specstab/internal/unison"
)

// E8Ablations probes the design decisions the paper's parameters encode:
//
//	(a) privilege spacing — halving the paper's 2·diam spacing to diam
//	    admits legitimate configurations with two simultaneous privileges:
//	    the explicit counterexample the clock size K was chosen to exclude;
//	(b) exhaustive certification — the model checker's exact worst cases on
//	    small instances versus Theorems 2 and 3, plus the divergence
//	    witness for Dijkstra's ring with an under-provisioned K < n;
//	(c) the price of the big clock — SSME's stabilization time does not
//	    depend on K, but the critical-section service cycle is Θ(K) =
//	    Θ(n·diam): speculation buys stabilization speed, not service rate.
//
// (b) and (c) are rows-cell grids: each exhaustive-checker instance and
// each ring size runs as one parallel cell, folded in grid order.
func E8Ablations(cfg RunConfig) ([]*stats.Table, error) {
	a, err := e8Spacing()
	if err != nil {
		return nil, err
	}
	b, err := e8Checker(cfg)
	if err != nil {
		return nil, err
	}
	c, err := e8ServiceCost(cfg)
	if err != nil {
		return nil, err
	}
	return []*stats.Table{a, b, c}, nil
}

// e8Spacing builds a path whose two endpoints carry identities 0 and 1 at
// distance diam, and the Γ₁ gradient configuration r_w = 2n + dist(0, w).
// With the paper's spacing 2·diam only vertex 0 is privileged; with the
// halved spacing diam both endpoints are — safety breaks inside the
// legitimacy set, which is precisely what Theorem 1's proof excludes via
// d_K(priv_u, priv_v) > diam.
func e8Spacing() (*stats.Table, error) {
	const n = 6
	// Path 0 − 2 − 3 − 4 − 5 − 1: endpoints are identities 0 and 1.
	g, err := graph.New("relabeled-path-6", n, [][2]int{{0, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 1}})
	if err != nil {
		return nil, err
	}
	p, err := core.New(g)
	if err != nil {
		return nil, err
	}
	d := g.Diameter()
	gradient := make(sim.Config[int], n)
	for w := 0; w < n; w++ {
		gradient[w] = 2*n + g.Dist(0, w)
	}
	if !p.Legitimate(gradient) {
		return nil, fmt.Errorf("experiments: gradient configuration unexpectedly outside Γ₁")
	}
	brokenPrivileged := func(c sim.Config[int], v int) bool { return c[v] == 2*n+d*v }
	countBroken := 0
	countPaper := 0
	for v := 0; v < n; v++ {
		if brokenPrivileged(gradient, v) {
			countBroken++
		}
		if p.Privileged(gradient, v) {
			countPaper++
		}
	}
	table := stats.NewTable(
		"E8a — privilege spacing ablation on "+g.Name()+" (Γ₁ gradient configuration)",
		"privilege spacing", "privileged vertices in a legitimate configuration", "expected outcome",
	)
	table.AddRow(fmt.Sprintf("2·diam = %d (paper)", 2*d), countPaper,
		ok(countPaper <= 1)+" — safe, as Theorem 1 proves")
	table.AddRow(fmt.Sprintf("diam = %d (halved)", d), countBroken,
		ok(countBroken == 2)+" — unsafe inside Γ₁, as the ablation predicts")
	table.AddNote("halved spacing puts priv(0)=%d and priv(1)=%d only diam apart — a drift-1 gradient covers it inside Γ₁",
		2*n, 2*n+d)
	return table, nil
}

// e8Checker reports the exact (exhaustively verified) worst cases.
func e8Checker(cfg RunConfig) (*stats.Table, error) {
	table := stats.NewTable(
		"E8b — exhaustive model checking on small instances",
		"instance", "configurations", "exact result", "theorem bound", "ok",
	)
	graphs := []*graph.Graph{graph.Ring(3)}
	if !cfg.Quick {
		graphs = append(graphs, graph.Path(3))
	}
	// The synchronous and the unfair-daemon check of an instance are
	// separate cells, so the two longest runs of the table do not queue
	// behind each other on one worker.
	var cells []rowsCell
	for _, g := range graphs {
		g := g
		cells = append(cells,
			rowsCell{run: func() ([][]any, error) { return e8SyncRow(g) }},
			rowsCell{run: func() ([][]any, error) { return e8UnfairRow(g) }})
	}
	cells = append(cells, rowsCell{run: e8DivergenceRow})
	if err := runRows(cfg.pool(), table, cells); err != nil {
		return nil, err
	}
	return table, nil
}

// e8SyncRow exhausts one SSME instance under the synchronous daemon.
func e8SyncRow(g *graph.Graph) ([][]any, error) {
	p, err := core.New(g)
	if err != nil {
		return nil, err
	}
	syncRep, err := check.SyncWorst[int](p, check.SyncOptions[int]{
		Domain:  func(int) []int { return p.Clock().Values() },
		Safe:    p.SafeME,
		Legit:   p.Legitimate,
		Horizon: p.ServiceWindow(),
	})
	if err != nil {
		return nil, err
	}
	bound := core.SyncBound(g)
	return [][]any{{"SSME sync " + g.Name(), syncRep.Configs,
		fmt.Sprintf("worst conv = %d steps", syncRep.WorstSteps),
		fmt.Sprintf("= ⌈diam/2⌉ = %d", bound), ok(syncRep.WorstSteps == bound)}}, nil
}

// e8UnfairRow exhausts one SSME instance under the unfair daemon.
func e8UnfairRow(g *graph.Graph) ([][]any, error) {
	p, err := core.New(g)
	if err != nil {
		return nil, err
	}
	udRep, err := check.Exhaustive[int](p, check.Options[int]{
		Domain:       func(int) []int { return p.Clock().Values() },
		Legit:        p.Legitimate,
		Safe:         p.SafeME,
		CheckClosure: true,
	})
	if err != nil {
		return nil, err
	}
	return [][]any{{"SSME ud " + g.Name(), udRep.Configs,
		fmt.Sprintf("worst = %d moves, closure viol = %d, unsafe legit = %d, deadlocks = %d",
			udRep.WorstMoves, udRep.ClosureViolations, udRep.UnsafeLegit, udRep.DeadlockCount),
		fmt.Sprintf("≤ %d moves", p.UnfairBoundMoves()),
		ok(!udRep.NonConverging && udRep.WorstMoves <= p.UnfairBoundMoves() &&
			udRep.ClosureViolations == 0 && udRep.UnsafeLegit == 0 && udRep.DeadlockCount == 0)}}, nil
}

// e8DivergenceRow exhausts the under-provisioned Dijkstra ring.
func e8DivergenceRow() ([][]any, error) {
	under, err := dijkstra.NewUnchecked(4, 2)
	if err != nil {
		return nil, err
	}
	divRep, err := check.Exhaustive[int](under, check.Options[int]{
		Domain: func(int) []int { return []int{0, 1} },
		Legit:  under.Legitimate,
	})
	if err != nil {
		return nil, err
	}
	return [][]any{{"dijkstra n=4 K=2", divRep.Configs,
		fmt.Sprintf("non-converging = %v (witness %v)", divRep.NonConverging, divRep.CycleWitness),
		"divergence expected for K < n", ok(divRep.NonConverging)}}, nil
}

// e8ServiceCost contrasts stabilization time with service latency on rings:
// the clock size K = (2n−1)(diam+1)+2 never slows stabilization (Theorem 2
// is K-independent) but the maximal inter-service gap grows with K.
func e8ServiceCost(cfg RunConfig) (*stats.Table, error) {
	sizes := []int{6, 10}
	if !cfg.Quick {
		sizes = []int{6, 10, 14, 18}
	}
	table := stats.NewTable(
		"E8c — the price of the big clock (rings, synchronous executions)",
		"n", "K", "sync conv (worst island)", "bound ⌈diam/2⌉", "max CS gap (steps)", "unison-only K (minimal)",
	)
	var cells []rowsCell
	for _, n := range sizes {
		n := n
		cells = append(cells, rowsCell{run: func() ([][]any, error) { return e8ServiceCostRow(cfg, n) }})
	}
	if err := runRows(cfg.pool(), table, cells); err != nil {
		return nil, err
	}
	table.AddNote("stabilization stays at ⌈diam/2⌉ regardless of K; service gap scales with K = Θ(n·diam) — the clock pays rotation latency for privilege spacing")
	return table, nil
}

// e8ServiceCostRow measures one ring size.
func e8ServiceCostRow(cfg RunConfig, n int) ([][]any, error) {
	g := graph.Ring(n)
	p, err := core.New(g)
	if err != nil {
		return nil, err
	}
	worst, err := p.WorstSyncConfig()
	if err != nil {
		return nil, err
	}
	rep, err := p.MeasureSync(worst)
	if err != nil {
		return nil, err
	}
	initial, err := p.UniformConfig(0)
	if err != nil {
		return nil, err
	}
	e := sim.MustEngine[int](p, daemon.NewSynchronous[int](), initial, 1)
	svc, err := p.MeasureService(e, 3*p.ServiceWindow())
	if err != nil {
		return nil, err
	}
	return [][]any{{n, p.Clock().K, rep.ConvergenceSteps, core.SyncBound(g),
		svc.MaxGap, unison.MinimalParams(g).K}}, nil
}

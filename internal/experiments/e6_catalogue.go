package experiments

import (
	"fmt"

	"specstab/internal/campaign"

	"specstab/internal/bfstree"
	"specstab/internal/core"
	"specstab/internal/daemon"
	"specstab/internal/dijkstra"
	"specstab/internal/graph"
	"specstab/internal/matching"
	"specstab/internal/sim"
	"specstab/internal/speculation"
	"specstab/internal/stats"
)

// E6Catalogue reproduces the Section 3 catalogue: protocols from the
// literature that are accidentally speculatively stabilizing, plus SSME
// itself. For each protocol it measures the convergence curve under an
// unfair (ud-subsumed) adversary and under the synchronous daemon, fits the
// growth exponents, and checks the claimed separation:
//
//	Dijkstra ring : (ud, sd, n², n)
//	min+1 BFS     : (ud, sd, n², diam) — quadratic moves vs diameter steps
//	MMPT matching : (ud, sd, 4n+2m, 2n+1) — superlinear vs linear on K_n
//	SSME          : (ud, sd, O(diam·n³), ⌈diam/2⌉)
func E6Catalogue(cfg RunConfig) ([]*stats.Table, error) {
	// The grid is the catalogue itself: four certificates measured on
	// disjoint protocol instances with independent rng salts, one cell
	// each; the extractor renders the summary row and the detail curve.
	summary := stats.NewTable(
		"E6 — Section 3 catalogue: measured speculative-stabilization certificates",
		"protocol", "claimed strong", "claimed weak", "measured strong exp", "measured weak exp", "separated",
	)
	tables := []*stats.Table{summary}
	cells := []func(RunConfig) (speculation.Certificate, error){
		e6Dijkstra, e6BFS, e6Matching, e6SSME,
	}
	err := campaign.Sweep(cfg.pool(), cells,
		func(func(RunConfig) (speculation.Certificate, error)) int { return 1 },
		func(measure func(RunConfig) (speculation.Certificate, error), _ int) (speculation.Certificate, error) {
			return measure(cfg)
		},
		func(_ func(RunConfig) (speculation.Certificate, error), certs []speculation.Certificate) error {
			cert := certs[0]
			summary.AddRow(cert.Claim.Protocol,
				fmt.Sprintf("%s ~ size^%.1f", cert.Claim.Strong, cert.Claim.StrongExponent),
				fmt.Sprintf("%s ~ size^%.1f", cert.Claim.Weak, cert.Claim.WeakExponent),
				cert.StrongFit.Exponent, cert.WeakFit.Exponent, ok(cert.Separated(0.6)))

			detail := stats.NewTable("E6 detail — "+cert.Claim.Protocol,
				"size", "strong ("+cert.Claim.Strong.String()+")", "weak ("+cert.Claim.Weak.String()+")")
			for i := range cert.Strong {
				weak := 0.0
				if i < len(cert.Weak) {
					weak = cert.Weak[i].Conv
				}
				detail.AddRow(cert.Strong[i].Size, cert.Strong[i].Conv, weak)
			}
			tables = append(tables, detail)
			return nil
		})
	if err != nil {
		return nil, err
	}
	return tables, nil
}

// e6Dijkstra measures Dijkstra's ring: worst-case moves from the
// alternating-runs configuration under the rightmost-token central daemon
// (exactly (n/2−1)²) versus synchronous steps from random and worst
// configurations (≤ 2n, exactly n from the worst configuration).
func e6Dijkstra(cfg RunConfig) (speculation.Certificate, error) {
	sizes := []int{8, 16, 24}
	if !cfg.Quick {
		sizes = []int{8, 16, 24, 32, 48, 64}
	}
	claim := speculation.Claim{
		Protocol:       "dijkstra-kstate (ring)",
		Strong:         speculation.UnfairDistributed,
		Weak:           speculation.Synchronous,
		StrongExponent: 2,
		WeakExponent:   1,
	}
	var strong, weak []speculation.CurvePoint
	for _, n := range sizes {
		p, err := dijkstra.New(n, n)
		if err != nil {
			return speculation.Certificate{}, err
		}
		e := sim.MustEngine[int](p, daemon.NewMaxIDCentral[int](), p.WorstConfig(), 1)
		out, err := measureRun(e, p.UnfairHorizonMoves(), n, p.SafeME, p.Legitimate)
		if err != nil {
			return speculation.Certificate{}, err
		}
		strong = append(strong, speculation.CurvePoint{Size: n, Conv: float64(out.legitMoves)})

		worstSync := 0
		rng := cfg.rng(int64(n))
		for trial := 0; trial < cfg.pick(10, 40); trial++ {
			e := sim.MustEngine[int](p, daemon.NewSynchronous[int](), sim.RandomConfig[int](p, rng), 1)
			rep, err := sim.MeasureConvergence(e, p.SyncHorizon(), p.SafeME, p.Legitimate)
			if err != nil {
				return speculation.Certificate{}, err
			}
			if rep.ConvergenceSteps > worstSync {
				worstSync = rep.ConvergenceSteps
			}
		}
		weak = append(weak, speculation.CurvePoint{Size: n, Conv: float64(worstSync)})
	}
	return speculation.Measure(claim, strong, weak)
}

// e6BFS measures Huang–Chen min+1: moves from the all-zero configuration
// under the greedy error-mass adversary on rings (Θ(n²) climb) versus
// synchronous steps on end-rooted paths (Θ(diam)).
func e6BFS(cfg RunConfig) (speculation.Certificate, error) {
	sizes := []int{8, 16, 24}
	if !cfg.Quick {
		sizes = []int{8, 16, 24, 32, 48}
	}
	claim := speculation.Claim{
		Protocol:       "bfs-min+1",
		Strong:         speculation.UnfairDistributed,
		Weak:           speculation.Synchronous,
		StrongExponent: 2,
		WeakExponent:   1,
	}
	var strong, weak []speculation.CurvePoint
	for _, n := range sizes {
		ring := bfstree.MustNew(graph.Ring(n), 0)
		zero := make(sim.Config[int], n)
		e := sim.MustEngine[int](ring, daemon.NewGreedyCentral[int](ring, ring.ErrorMass), zero, 1)
		if _, err := sim.RunToFixpoint(e, ring.UnfairHorizonMoves()); err != nil {
			return speculation.Certificate{}, err
		}
		strong = append(strong, speculation.CurvePoint{Size: n, Conv: float64(e.Moves())})

		path := bfstree.MustNew(graph.Path(n), 0)
		worstSync := 0
		rng := cfg.rng(int64(5 * n))
		for trial := 0; trial < cfg.pick(10, 30); trial++ {
			e := sim.MustEngine[int](path, daemon.NewSynchronous[int](), sim.RandomConfig[int](path, rng), 1)
			if _, err := sim.RunToFixpoint(e, path.SyncHorizon()); err != nil {
				return speculation.Certificate{}, err
			}
			if e.Steps() > worstSync {
				worstSync = e.Steps()
			}
		}
		weak = append(weak, speculation.CurvePoint{Size: n, Conv: float64(worstSync)})
	}
	return speculation.Measure(claim, strong, weak)
}

// e6Matching measures MMPT maximal matching on complete graphs, where the
// 4n+2m move bound is Θ(n²) while the synchronous bound 2n+1 stays linear.
func e6Matching(cfg RunConfig) (speculation.Certificate, error) {
	sizes := []int{6, 10, 14}
	if !cfg.Quick {
		sizes = []int{6, 10, 14, 20, 26}
	}
	claim := speculation.Claim{
		Protocol:       "mmpt-matching (K_n)",
		Strong:         speculation.UnfairDistributed,
		Weak:           speculation.Synchronous,
		StrongExponent: 2,
		WeakExponent:   1,
	}
	var strong, weak []speculation.CurvePoint
	for _, n := range sizes {
		g := graph.Complete(n)
		p := matching.New(g)
		rng := cfg.rng(int64(7 * n))
		// The Θ(m) worst case is the propose/abandon churn: every single
		// courts the top remaining single each round (rule-priority
		// schedule from the clean configuration).
		churn := daemon.NewRulePriorityCentral[matching.State](p, matching.ChurnPriority())
		e := sim.MustEngine[matching.State](p, churn, p.CleanConfig(), 1)
		if _, err := sim.RunToFixpoint(e, 4*p.UnfairBoundMoves()); err != nil {
			return speculation.Certificate{}, err
		}
		worstMoves := e.Moves()
		for trial := 0; trial < cfg.pick(4, 10); trial++ {
			e := sim.MustEngine[matching.State](p,
				daemon.NewGreedyCentral[matching.State](p, p.ProgressPotential),
				sim.RandomConfig[matching.State](p, rng), int64(trial+1))
			if _, err := sim.RunToFixpoint(e, 4*p.UnfairBoundMoves()); err != nil {
				return speculation.Certificate{}, err
			}
			if e.Moves() > worstMoves {
				worstMoves = e.Moves()
			}
		}
		strong = append(strong, speculation.CurvePoint{Size: n, Conv: float64(worstMoves)})

		worstSync := 0
		for trial := 0; trial < cfg.pick(4, 10); trial++ {
			e := sim.MustEngine[matching.State](p, daemon.NewSynchronous[matching.State](),
				sim.RandomConfig[matching.State](p, rng), 1)
			if _, err := sim.RunToFixpoint(e, p.SyncBoundSteps()+1); err != nil {
				return speculation.Certificate{}, err
			}
			if e.Steps() > worstSync {
				worstSync = e.Steps()
			}
		}
		weak = append(weak, speculation.CurvePoint{Size: n, Conv: float64(worstSync)})
	}
	return speculation.Measure(claim, strong, weak)
}

// e6SSME measures SSME itself on rings: worst moves to Γ₁ under ud-style
// daemons versus the ⌈diam/2⌉ synchronous stabilization of Theorem 2.
func e6SSME(cfg RunConfig) (speculation.Certificate, error) {
	sizes := []int{6, 10, 14}
	if !cfg.Quick {
		sizes = []int{6, 10, 14, 18, 24}
	}
	claim := speculation.Claim{
		Protocol:       "SSME (ring)",
		Strong:         speculation.UnfairDistributed,
		Weak:           speculation.Synchronous,
		StrongExponent: 1.5, // measured-moves shape; the proven bound is Θ(diam·n³) worst case
		WeakExponent:   1,   // ⌈diam/2⌉ = ⌈n/4⌉ on rings
	}
	var strong, weak []speculation.CurvePoint
	for _, n := range sizes {
		g := graph.Ring(n)
		p, err := core.New(g)
		if err != nil {
			return speculation.Certificate{}, err
		}
		rng := cfg.rng(int64(11 * n))
		worstMoves := 0
		for trial := 0; trial < cfg.pick(3, 6); trial++ {
			e := sim.MustEngine[int](p, daemon.NewGreedyCentral[int](p, p.DisorderPotential),
				sim.RandomConfig[int](p, rng), int64(trial+1))
			out, err := measureRun(e, p.UnfairBoundMoves(), p.Clock().K, p.SafeME, p.Legitimate)
			if err != nil {
				return speculation.Certificate{}, err
			}
			if out.legitMoves > worstMoves {
				worstMoves = out.legitMoves
			}
		}
		strong = append(strong, speculation.CurvePoint{Size: n, Conv: float64(worstMoves)})

		worst, err := p.WorstSyncConfig()
		if err != nil {
			return speculation.Certificate{}, err
		}
		rep, err := p.MeasureSync(worst)
		if err != nil {
			return speculation.Certificate{}, err
		}
		weak = append(weak, speculation.CurvePoint{Size: n, Conv: float64(rep.ConvergenceSteps)})
	}
	return speculation.Measure(claim, strong, weak)
}

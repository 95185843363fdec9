// Baselines: the Section 3 catalogue on one ring. Dijkstra's seminal
// protocol stabilizes in Θ(n²) moves under the unfair daemon and ~n steps
// synchronously; SSME brings the synchronous figure down to ⌈diam/2⌉ =
// ⌈n/4⌉ on the same ring — the speculation gap the paper closes after 40
// years.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"specstab/internal/core"
	"specstab/internal/daemon"
	"specstab/internal/dijkstra"
	"specstab/internal/graph"
	"specstab/internal/sim"
)

func main() {
	const n = 16
	g := graph.Ring(n)

	// Dijkstra's K-state protocol, K = n.
	dij, err := dijkstra.New(n, n)
	if err != nil {
		log.Fatal(err)
	}
	e := sim.MustEngine[int](dij, daemon.NewMaxIDCentral[int](), dij.WorstConfig(), 1)
	rep, err := sim.MeasureConvergence(e, dij.UnfairHorizonMoves(), dij.SafeME, dij.Legitimate)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Dijkstra (ring n=%d, K=%d)\n", n, n)
	fmt.Printf("  unfair daemon, worst configuration : %d moves  (Θ(n²): (n/2−1)² = %d)\n",
		rep.FirstLegitMoves, (n/2-1)*(n/2-1))

	eSync := sim.MustEngine[int](dij, daemon.NewSynchronous[int](), dij.WorstConfig(), 1)
	repSync, err := sim.MeasureConvergence(eSync, dij.SyncHorizon(), dij.SafeME, dij.Legitimate)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  synchronous daemon                 : %d steps  (paper: n = %d)\n\n",
		repSync.ConvergenceSteps, n)

	// SSME on the same ring.
	p, err := core.New(g)
	if err != nil {
		log.Fatal(err)
	}
	worst, err := p.WorstSyncConfig()
	if err != nil {
		log.Fatal(err)
	}
	ssmeSync, err := p.MeasureSync(worst)
	if err != nil {
		log.Fatal(err)
	}
	rng := rand.New(sim.NewLazySource(3))
	eUD := sim.MustEngine[int](p, daemon.NewGreedyCentral[int](p, p.DisorderPotential),
		sim.RandomConfig[int](p, rng), 1)
	if _, err := eUD.Run(p.UnfairBoundMoves(), p.Legitimate); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("SSME (ring n=%d, clock %s)\n", n, p.Clock())
	fmt.Printf("  unfair daemon (greedy adversary)   : %d moves  (bound O(diam·n³) = %d)\n",
		eUD.Moves(), p.UnfairBoundMoves())
	fmt.Printf("  synchronous daemon, worst islands  : %d steps  (⌈diam/2⌉ = %d — optimal)\n",
		ssmeSync.ConvergenceSteps, core.SyncBound(g))
	fmt.Printf("\nspeculative gap under sd: Dijkstra %d steps → SSME %d steps on the same ring\n",
		repSync.ConvergenceSteps, ssmeSync.ConvergenceSteps)
	fmt.Println("and SSME is not confined to rings: it runs on any connected topology.")
}

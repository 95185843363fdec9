// Quickstart: build a communication graph, run SSME (the speculatively
// stabilizing mutual-exclusion protocol of Dubois & Guerraoui, PODC 2013)
// from an arbitrary corrupted configuration under the synchronous daemon,
// and watch it stabilize within ⌈diam/2⌉ steps — the optimal bound.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"specstab/internal/core"
	"specstab/internal/graph"
	"specstab/internal/sim"
)

func main() {
	// Any connected topology works; Dijkstra's classic protocol would
	// insist on a ring.
	g := graph.Grid(4, 5)
	p, err := core.New(g)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("SSME on %s — clock %s\n", g, p.Clock())
	fmt.Printf("Theorem 2 bound: ⌈diam/2⌉ = %d synchronous steps\n\n", core.SyncBound(g))

	rng := rand.New(sim.NewLazySource(2013))
	for trial := 1; trial <= 5; trial++ {
		// A transient fault corrupted every register arbitrarily:
		initial := sim.RandomConfig[int](p, rng)
		rep, err := p.MeasureSync(initial)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("trial %d: stabilized in %d steps (Γ₁ reached at step %d, closure broken: %v)\n",
			trial, rep.ConvergenceSteps, rep.FirstLegitStep, rep.ClosureBroken)
	}

	// The adversarial island configuration attains the bound exactly.
	worst, err := p.WorstSyncConfig()
	if err != nil {
		log.Fatal(err)
	}
	rep, err := p.MeasureSync(worst)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nworst-case islands: stabilized in exactly %d steps — the optimum of Theorems 2 and 4\n",
		rep.ConvergenceSteps)
}

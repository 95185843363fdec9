// Speculation: measure a Definition 4 certificate for SSME on tori —
// self-stabilization under the unfair distributed daemon with a much
// better stabilization time under the synchronous daemon, the executions
// the protocol speculates to be frequent.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"specstab/internal/core"
	"specstab/internal/daemon"
	"specstab/internal/graph"
	"specstab/internal/sim"
	"specstab/internal/speculation"
)

func main() {
	claim := speculation.Claim{
		Protocol:       "SSME (torus)",
		Strong:         speculation.UnfairDistributed,
		Weak:           speculation.Synchronous,
		StrongExponent: 1.5,
		WeakExponent:   0.5, // ⌈diam/2⌉ with diam = 2⌊side/2⌋ ~ √n on tori
	}
	fmt.Printf("daemon partial order: ud ⪰ sd? %v; sd ⪰ ud? %v; sd, cd comparable? %v\n\n",
		speculation.MorePowerful(speculation.UnfairDistributed, speculation.Synchronous),
		speculation.MorePowerful(speculation.Synchronous, speculation.UnfairDistributed),
		speculation.Comparable(speculation.Synchronous, speculation.Central))

	var strong, weak []speculation.CurvePoint
	for _, side := range []int{3, 4, 5, 6} {
		g := graph.Torus(side, side)
		p, err := core.New(g)
		if err != nil {
			log.Fatal(err)
		}
		n := g.N()

		// Strong daemon: worst moves to Γ₁ over unfair schedules.
		rng := rand.New(sim.NewLazySource(int64(side)))
		worstMoves := 0
		for trial := 0; trial < 5; trial++ {
			e := sim.MustEngine[int](p, daemon.NewGreedyCentral[int](p, p.DisorderPotential),
				sim.RandomConfig[int](p, rng), int64(trial))
			steps, err := e.Run(p.UnfairBoundMoves(), p.Legitimate)
			if err != nil {
				log.Fatal(err)
			}
			_ = steps
			if e.Moves() > worstMoves {
				worstMoves = e.Moves()
			}
		}
		strong = append(strong, speculation.CurvePoint{Size: n, Conv: float64(worstMoves)})

		// Weak daemon: the worst synchronous stabilization (island start).
		worstCfg, err := p.WorstSyncConfig()
		if err != nil {
			log.Fatal(err)
		}
		rep, err := p.MeasureSync(worstCfg)
		if err != nil {
			log.Fatal(err)
		}
		weak = append(weak, speculation.CurvePoint{Size: n, Conv: float64(rep.ConvergenceSteps)})
	}

	cert, err := speculation.Measure(claim, strong, weak)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(cert)
	fmt.Printf("\nseparated (measured gap exceeds claimed gap − 0.6): %v\n", cert.Separated(0.6))
}

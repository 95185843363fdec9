// Composition: the paper's conclusion asks for "a composition tool that
// automatically ensures speculative stabilization". This example runs the
// collateral product of two self-stabilizing protocols — min+1 BFS and
// asynchronous unison — on one graph and shows both stabilizing together
// under the synchronous daemon within the max of their individual bounds
// (and the fair-composition caveat that makes the unfair case subtle).
package main

import (
	"fmt"
	"log"
	"math/rand"

	"specstab/internal/bfstree"
	"specstab/internal/compose"
	"specstab/internal/daemon"
	"specstab/internal/graph"
	"specstab/internal/sim"
	"specstab/internal/unison"
)

func main() {
	g := graph.Torus(4, 4)
	bfs := bfstree.MustNew(g, 0)
	uni, err := unison.New(g, unison.SafeParams(g))
	if err != nil {
		log.Fatal(err)
	}
	prod := compose.MustNew[int, int](bfs, uni)
	fmt.Printf("composite protocol: %s\n", prod.Name())
	fmt.Printf("individual sync horizons: BFS %d, unison %d\n\n", bfs.SyncHorizon(), uni.SyncHorizon())

	type pair = compose.Pair[int, int]
	rng := rand.New(sim.NewLazySource(2013))
	for trial := 1; trial <= 5; trial++ {
		e := sim.MustEngine[pair](prod, daemon.NewSynchronous[pair](),
			sim.RandomConfig[pair](prod, rng), 1)
		bothLegit := func(c sim.Config[pair]) bool {
			return bfs.Correct(prod.ProjectA(c)) && uni.Legitimate(prod.ProjectB(c))
		}
		horizon := bfs.SyncHorizon() + uni.SyncHorizon()
		if _, err := e.Run(horizon, bothLegit); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("trial %d: both components stabilized after %d synchronous steps (budget %d)\n",
			trial, e.Steps(), horizon)
		if !bothLegit(e.Current()) {
			log.Fatal("composition failed to stabilize — fair-composition theorem violated under sd")
		}
	}

	fmt.Println("\ncaveat: under an *unfair* daemon a scheduler may fire only unison moves forever,")
	fmt.Println("starving the BFS component — composition needs weak fairness (see internal/compose).")
}

// Resource: use SSME's privilege to guard a shared resource. A transient
// fault corrupts every clock; the system self-stabilizes under a
// distributed daemon on a two-worker engine, and once legitimate, the
// resource is never accessed by two processes at once.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"specstab/internal/core"
	"specstab/internal/daemon"
	"specstab/internal/graph"
	"specstab/internal/sim"
)

func main() {
	g := graph.Ring(10)
	p, err := core.New(g)
	if err != nil {
		log.Fatal(err)
	}

	// Transient fault: every register is garbage.
	initial := sim.RandomConfig[int](p, rand.New(sim.NewLazySource(7)))
	e, err := sim.NewEngineWith[int](p, daemon.NewDistributed[int](0.5), initial, 7, sim.Options{Workers: 2})
	if err != nil {
		log.Fatal(err)
	}
	defer e.Close()

	fmt.Printf("SSME on %s from a corrupted configuration; waiting for self-stabilization…\n", g)
	steps, err := e.Run(p.UnfairBoundMoves(), p.Legitimate)
	if err != nil {
		log.Fatal(err)
	}
	if !p.Legitimate(e.Current()) {
		log.Fatalf("not legitimate after %d steps", steps)
	}
	fmt.Printf("reached Γ₁ after %d steps and %d moves\n", steps, e.Moves())

	// A vertex uses the resource when it moves while privileged: that
	// action is its critical section. From here on, closure guarantees at
	// most one user per step.
	privileged := make([]bool, g.N())
	uses, overlaps := 0, 0
	e.AddHook(func(info sim.StepInfo) {
		users := 0
		for _, v := range info.Activated {
			if privileged[v] {
				users++
			}
		}
		uses += users
		if users > 1 {
			overlaps++
		}
	})
	for uses < 25 {
		c := e.Current()
		for v := range privileged {
			privileged[v] = p.Privileged(c, v)
		}
		if _, err := e.Step(); err != nil {
			log.Fatal(err)
		}
	}

	fmt.Printf("resource accesses after stabilization: %d in %d steps\n", uses, e.Steps()-steps)
	fmt.Printf("overlapping accesses (must be 0):      %d\n", overlaps)
}

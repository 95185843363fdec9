package experiments

import (
	"fmt"

	"specstab/internal/campaign"
	"specstab/internal/core"
	"specstab/internal/daemon"
	"specstab/internal/sim"
	"specstab/internal/stats"
)

// E2SelfStabilization reproduces Theorem 1: SSME self-stabilizes for
// spec_ME under the unfair distributed daemon. Across the topology zoo and
// a family of ud-subsumed daemons (random central, round-robin,
// distributed-p, greedy adversaries), every execution from a random
// arbitrary configuration reaches Γ₁, never violates safety afterwards
// (closure), and serves every vertex's critical section within a service
// window once legitimate.
//
// The grid is topology × daemon; every trial's initial configuration is
// drawn at expansion time (the shared-rng contract of the campaign
// scheduler), the trials fan out, and the extractor folds the worst case
// per cell.
func E2SelfStabilization(cfg RunConfig) ([]*stats.Table, error) {
	trials := cfg.pick(3, 8)
	table := stats.NewTable(
		"E2 — Theorem 1: self-stabilization of SSME under ud (worst over trials)",
		"graph", "daemon", "trials", "conv steps", "conv moves", "Γ₁ steps", "Γ₁ moves", "closure", "liveness",
	)

	type cell struct {
		p        *core.Protocol
		mk       func() sim.Daemon[int]
		name     string
		horizon  int
		initials []sim.Config[int]
	}
	var cells []cell
	for _, g := range zoo(cfg) {
		p, err := core.New(g)
		if err != nil {
			return nil, err
		}
		daemons := []func() sim.Daemon[int]{
			func() sim.Daemon[int] { return daemon.NewRandomCentral[int]() },
			func() sim.Daemon[int] { return daemon.NewRoundRobin[int](g.N()) },
			func() sim.Daemon[int] { return daemon.NewDistributed[int](0.5) },
			func() sim.Daemon[int] { return daemon.NewGreedyCentral[int](p, p.DisorderPotential) },
		}
		horizon := p.UnfairBoundMoves() // every step ≥ 1 move, so a valid step horizon
		rng := cfg.rng(int64(g.N()))
		for _, mk := range daemons {
			initials := make([]sim.Config[int], trials)
			for t := range initials {
				initials[t] = sim.RandomConfig[int](p, rng)
			}
			cells = append(cells, cell{p: p, mk: mk, name: mk().Name(), horizon: horizon, initials: initials})
		}
	}

	err := campaign.Sweep(cfg.pool(), cells,
		func(cell) int { return trials },
		func(c cell, t int) (runOutcome, error) {
			e, err := sim.NewEngine[int](c.p, c.mk(), c.initials[t], int64(t+1))
			if err != nil {
				return runOutcome{}, err
			}
			return measureRun(e, c.horizon, c.p.Clock().K, c.p.SafeME, c.p.Legitimate)
		},
		func(c cell, outs []runOutcome) error {
			var worst runOutcome
			closureOK := true
			allLegit := true
			for _, out := range outs {
				closureOK = closureOK && out.closureOK
				allLegit = allLegit && out.legitReached
				if out.convSteps > worst.convSteps {
					worst.convSteps = out.convSteps
					worst.convMoves = out.convMoves
				}
				if out.legitSteps > worst.legitSteps {
					worst.legitSteps = out.legitSteps
					worst.legitMoves = out.legitMoves
				}
			}
			// Liveness: from a legitimate start every vertex is served
			// within the service window under the synchronous daemon; for
			// the ud daemons liveness over an unfair schedule is checked
			// as "every clock keeps advancing" by the Γ₁ tail above, so
			// report the service check once per graph (first daemon row).
			liveness := "-"
			if c.name == "cd/random" {
				initial, err := c.p.UniformConfig(0)
				if err != nil {
					return err
				}
				e, err := sim.NewEngine[int](c.p, daemon.NewRandomCentral[int](), initial, 99)
				if err != nil {
					return err
				}
				svc, err := c.p.MeasureService(e, 3*c.p.ServiceWindow())
				if err != nil {
					return err
				}
				liveness = fmt.Sprintf("served=%v concurrent=%d", svc.AllServed, svc.ConcurrentCS)
			}
			table.AddRow(c.p.Graph().Name(), c.name, trials,
				worst.convSteps, worst.convMoves, worst.legitSteps, worst.legitMoves,
				ok(closureOK && allLegit), liveness)
			return nil
		})
	if err != nil {
		return nil, err
	}
	table.AddNote("closure=ok means no safety violation was ever observed at or after Γ₁ membership")
	return []*stats.Table{table}, nil
}

func ok(b bool) string {
	if b {
		return "ok"
	}
	return "VIOLATED"
}

package experiments

import (
	"fmt"

	"specstab/internal/campaign"
	"specstab/internal/daemon"
	"specstab/internal/graph"
	"specstab/internal/lexclusion"
	"specstab/internal/sim"
	"specstab/internal/stats"
)

// E11LExclusion implements the conclusion's perspective of applying
// speculative stabilization "to other classical problems of distributed
// computing": ℓ-exclusion built with the paper's own clock technique
// (internal/lexclusion). Measured per (graph, ℓ): the clock size (which
// shrinks as ℓ grows — cheaper rotations), the worst observed concurrent
// privilege count (≤ ℓ always, = ℓ when realized), synchronous convergence
// of safety, and service coverage.
//
// The grid is topology × ℓ; trials fan out, and the sequential fold runs
// the service-coverage check from a legitimate start before rendering the
// row.
func E11LExclusion(cfg RunConfig) ([]*stats.Table, error) {
	trials := cfg.pick(8, 30)
	table := stats.NewTable(
		"E11 — ℓ-exclusion via privilege groups (extension of the SSME construction)",
		"graph", "ℓ", "groups", "K (vs SSME's)", "max concurrent ≤ ℓ", "ℓ realized", "conv steps ≤", "served all",
	)
	graphs := []*graph.Graph{graph.Ring(8), graph.Grid(3, 4), graph.Complete(6)}
	if !cfg.Quick {
		graphs = append(graphs, graph.Ring(16), graph.Torus(4, 4), graph.Star(12), graph.Hypercube(4))
	}

	type cell struct {
		p        *lexclusion.Protocol
		gname    string
		l        int
		ssmeK    int
		initials []sim.Config[int]
	}
	var cells []cell
	for _, g := range graphs {
		ssmeK := lexclusion.Params(g, 1).K
		for _, l := range []int{1, 2, 4} {
			if l > g.N() {
				continue
			}
			p, err := lexclusion.New(g, l)
			if err != nil {
				return nil, err
			}
			rng := cfg.rng(int64(23*g.N() + l))
			initials := make([]sim.Config[int], trials)
			for t := range initials {
				initials[t] = sim.RandomConfig[int](p, rng)
			}
			cells = append(cells, cell{p: p, gname: g.Name(), l: l, ssmeK: ssmeK, initials: initials})
		}
	}

	err := campaign.Sweep(cfg.pool(), cells,
		func(cell) int { return trials },
		func(c cell, t int) (runOutcome, error) {
			e, err := sim.NewEngine[int](c.p, daemon.NewSynchronous[int](), c.initials[t], 1)
			if err != nil {
				return runOutcome{}, err
			}
			return measureRun(e, c.p.ServiceWindow(), c.p.Clock().K, c.p.SafeLX, c.p.Legitimate)
		},
		func(c cell, outs []runOutcome) error {
			worstConc := 0
			worstConv := 0
			closureOK := true
			for _, out := range outs {
				closureOK = closureOK && out.closureOK && out.legitReached
				if out.convSteps > worstConv {
					worstConv = out.convSteps
				}
			}

			// Concurrency realization and service coverage from a
			// legitimate start.
			p, n := c.p, c.p.Graph().N()
			initial, err := p.UniformConfig(0)
			if err != nil {
				return err
			}
			e, err := sim.NewEngine[int](p, daemon.NewSynchronous[int](), initial, 1)
			if err != nil {
				return err
			}
			served := make([]bool, n)
			for i := 0; i < p.ServiceWindow(); i++ {
				cur := e.Current()
				if cc := p.PrivilegedCount(cur); cc > worstConc {
					worstConc = cc
				}
				for v := 0; v < n; v++ {
					if p.Privileged(cur, v) {
						served[v] = true
					}
				}
				if _, err := e.Step(); err != nil {
					return err
				}
			}
			allServed := true
			for _, s := range served {
				allServed = allServed && s
			}
			lastGroup := (n - 1) / c.l
			fullGroupSize := n - lastGroup*c.l // last group may be smaller
			realized := worstConc == c.l || (fullGroupSize < c.l && worstConc >= fullGroupSize)

			table.AddRow(c.gname, c.l, p.Groups(),
				intPair(p.Clock().K, c.ssmeK),
				ok(worstConc <= c.l), ok(realized), worstConv, ok(allServed && closureOK))
			return nil
		})
	if err != nil {
		return nil, err
	}
	table.AddNote("ℓ=1 is exactly SSME; larger ℓ shrinks the clock (shorter rotations) while admitting ℓ concurrent critical sections")
	return []*stats.Table{table}, nil
}

func intPair(a, b int) string { return fmt.Sprintf("%d (vs %d)", a, b) }

package experiments

import (
	"fmt"

	"specstab/internal/bfstree"
	"specstab/internal/daemon"
	"specstab/internal/dijkstra"
	"specstab/internal/graph"
	"specstab/internal/sim"
	"specstab/internal/stats"
)

// E12Scaling measures the engine-locality tentpole: with a Local protocol
// the engine maintains the enabled set incrementally, spending
// O(Δ·avg-degree) guard evaluations per step instead of the O(N) full
// rescan — the locality Dolev & Herman exploit in unsupportive
// environments and that Hoepman's K=N ring analysis relies on (PAPERS.md).
//
// For every (topology, size, daemon) cell the same seeded execution is
// driven twice, once incrementally and once with rescans, the two final
// configurations are checked equal (the differential guarantee, at scale),
// and the table reports guard-evaluations-per-step for both along with the
// reduction factor. On sparse schedules (central daemon, ring) the
// reduction is ~N/(Δ·deg): three orders of magnitude at N = 100k. Step
// speed is measured by the benchmarks (BENCH_flat.json,
// BENCH_parallel.json), not here, so every column is deterministic.
func E12Scaling(cfg RunConfig) ([]*stats.Table, error) {
	steps := cfg.pick(300, 2000)
	ringSizes := []int{1024, 4096}
	treeSizes := []int{1024}
	if !cfg.Quick {
		ringSizes = []int{1024, 4096, 16384, 65536, 100000}
		// Prüfer decoding of random trees is quadratic, so the random
		// topologies stop at 16384 while the ring covers the full sweep.
		treeSizes = []int{1024, 4096, 16384}
	}

	table := stats.NewTable(
		"E12 — engine locality scaling: guard evaluations per step, incremental vs full rescan",
		"graph", "n", "daemon", "steps", "evals/step incr", "evals/step full", "reduction ×", "consistent",
	)

	type cell struct {
		gname string
		n     int
		build func() (proto[int], error)
	}
	cells := make([]cell, 0, len(ringSizes)+2*len(treeSizes))
	for _, n := range ringSizes {
		n := n
		cells = append(cells, cell{"ring", n, func() (proto[int], error) {
			p, err := dijkstra.New(n, n)
			return proto[int]{p, n}, err
		}})
	}
	for _, n := range treeSizes {
		n := n
		cells = append(cells, cell{"randtree", n, func() (proto[int], error) {
			g := graph.RandomTree(n, cfg.rng(int64(29*n)))
			p, err := bfstree.New(g, 0)
			return proto[int]{p, n}, err
		}})
		cells = append(cells, cell{"randconn", n, func() (proto[int], error) {
			rng := cfg.rng(int64(31 * n))
			g := graph.RandomConnected(n, n/2, rng)
			p, err := bfstree.New(g, 0)
			return proto[int]{p, n}, err
		}})
	}

	var rows []rowsCell
	for _, c := range cells {
		pr, err := c.build()
		if err != nil {
			return nil, err
		}
		for _, dm := range []struct {
			name string
			mk   func() sim.Daemon[int]
		}{
			{"cd/random", func() sim.Daemon[int] { return daemon.NewRandomCentral[int]() }},
			{"ud/distributed-p0.01", func() sim.Daemon[int] { return daemon.NewDistributed[int](0.01) }},
		} {
			c, dm := c, dm
			rows = append(rows, rowsCell{run: func() ([][]any, error) {
				row, err := measureScalingCell(cfg, pr.p, dm.mk, c.n, steps)
				if err != nil {
					return nil, fmt.Errorf("e12 %s-%d under %s: %w", c.gname, c.n, dm.name, err)
				}
				return [][]any{{fmt.Sprintf("%s-%d", c.gname, c.n), c.n, dm.name, row.steps,
					fmt.Sprintf("%.1f", row.evalsIncr), fmt.Sprintf("%.1f", row.evalsFull),
					fmt.Sprintf("%.0f", row.evalsFull/row.evalsIncr),
					ok(row.consistent)}}, nil
			}})
		}
	}
	if err := runRows(cfg.pool(), table, rows); err != nil {
		return nil, err
	}
	table.AddNote("executions are identical by construction (differential tests); the acceptance bar is ≥5× fewer guard evals on the 4096-ring under cd — measured ~10³×")
	return []*stats.Table{table}, nil
}

// proto pairs a protocol with its size (a generic-free holder for the cell
// builders above).
type proto[S comparable] struct {
	p sim.Protocol[S]
	n int
}

type scalingRow struct {
	steps                int
	evalsIncr, evalsFull float64
	consistent           bool
}

// measureScalingCell drives the same seeded execution incrementally and
// with full rescans and reports per-step guard-evaluation costs.
func measureScalingCell[S comparable](cfg RunConfig, p sim.Protocol[S], mk func() sim.Daemon[S], salt, steps int) (scalingRow, error) {
	rng := cfg.rng(int64(37 * salt))
	initial := sim.RandomConfig(p, rng)
	seed := cfg.seed() + int64(salt)

	inc, err := sim.NewEngine(p, mk(), initial, seed)
	if err != nil {
		return scalingRow{}, err
	}
	if !inc.Incremental() {
		return scalingRow{}, fmt.Errorf("protocol %s lacks sim.Local", p.Name())
	}
	full, err := sim.NewEngine(p, mk(), initial, seed)
	if err != nil {
		return scalingRow{}, err
	}
	full.DisableIncremental()

	di, err := inc.Run(steps, nil)
	if err != nil {
		return scalingRow{}, err
	}
	df, err := full.Run(steps, nil)
	if err != nil {
		return scalingRow{}, err
	}

	executed := di
	if executed == 0 {
		executed = 1
	}
	return scalingRow{
		steps:      di,
		evalsIncr:  float64(inc.GuardEvals()) / float64(executed),
		evalsFull:  float64(full.GuardEvals()) / float64(executed),
		consistent: di == df && inc.Current().Equal(full.Current()) && inc.Moves() == full.Moves(),
	}, nil
}

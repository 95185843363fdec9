package experiments

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"specstab/internal/bfstree"
	"specstab/internal/daemon"
	"specstab/internal/dijkstra"
	"specstab/internal/graph"
	"specstab/internal/sim"
	"specstab/internal/stats"
	"specstab/internal/unison"
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
// reduction factor and wall-clock. On sparse schedules (central daemon,
// ring) the reduction is ~N/(Δ·deg): three orders of magnitude at N = 100k.
//
// The grids run on the single-worker pool (seqPool) on purpose — parallel
// cells would contend for cores and skew the wall-clock columns.
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
		"graph", "n", "daemon", "steps", "evals/step incr", "evals/step full", "reduction ×", "incr ms", "full ms", "consistent",
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
					row.incrMS, row.fullMS, ok(row.consistent)}}, nil
			}})
		}
	}
	if err := runRows(seqPool(), table, rows); err != nil {
		return nil, err
	}
	table.AddNote("executions are identical by construction (differential tests); the acceptance bar is ≥5× fewer guard evals on the 4096-ring under cd — measured ~10³×")
	table.AddNote("wall-clock columns vary between runs; every other column is deterministic for a fixed seed")

	parallel, err := e12ParallelTable(cfg)
	if err != nil {
		return nil, err
	}
	return []*stats.Table{table, parallel}, nil
}

// workerSweep is the ISSUE 7 worker grid {1, 2, 4, GOMAXPROCS},
// deduplicated and ascending (on a 4-core host GOMAXPROCS collapses into
// the 4 column; on one core the sweep still runs as a determinism check).
func workerSweep() []int {
	sweep := []int{1, 2, 4, runtime.GOMAXPROCS(0)}
	seen := map[int]bool{}
	var out []int
	for _, w := range sweep {
		if !seen[w] {
			seen[w] = true
			out = append(out, w)
		}
	}
	sort.Ints(out)
	return out
}

// e12ParallelTable measures the multi-core tentpole: the same seeded
// synchronous execution driven once per worker count,
// each through its own persistent shard pool (reused across every step of
// the run — the pool is started once and its barrier cycled per sharded
// phase, never respawned). steps/sec and moves/sec are the throughput
// payload; the fingerprint column asserts the tentpole invariant that
// every worker count replays the Workers=1 execution bit for bit.
func e12ParallelTable(cfg RunConfig) (*stats.Table, error) {
	steps := cfg.pick(30, 60)
	sizes := []int{4096}
	if !cfg.Quick {
		sizes = []int{65536, 262144, 1048576}
	}
	workers := workerSweep()

	table := stats.NewTable(
		"E12d — shard-parallel flat backend under sd: steps/sec and moves/sec vs worker count",
		"graph", "n", "workers", "steps", "ns/step", "steps/s", "moves/s", "speedup ×", "consistent",
	)
	var rows []rowsCell
	for _, n := range sizes {
		n := n
		rows = append(rows, rowsCell{run: func() ([][]any, error) {
			return e12ParallelRows(cfg, n, steps, workers)
		}})
	}
	if err := runRows(seqPool(), table, rows); err != nil {
		return nil, err
	}
	table.AddNote("host: %d core(s), GOMAXPROCS=%d — speedup is scaling efficiency relative to workers=1; on a single-core host the parallel rows measure pool overhead and the table is a determinism check",
		runtime.NumCPU(), runtime.GOMAXPROCS(0))
	table.AddNote("consistent: every worker count reproduces the workers=1 configuration fingerprint, steps and moves exactly (sim.FingerprintConfig)")
	return table, nil
}

// e12ParallelRows drives one unison ring (full-width sd firing front, the
// fused fast path) once per worker count from the same seeded start.
func e12ParallelRows(cfg RunConfig, n, steps int, workers []int) ([][]any, error) {
	g := graph.Ring(n)
	p, err := unison.New(g, unison.SafeParams(g))
	if err != nil {
		return nil, err
	}
	initial := sim.RandomConfig[int](p, cfg.rng(int64(53*n)))
	seed := cfg.seed() + int64(n)

	var out [][]any
	var baseNS int64
	var baseFP uint64
	var baseMoves int
	for i, w := range workers {
		pool := sim.NewPool(w)
		e, err := sim.NewEngineWith[int](p, daemon.NewSynchronous[int](), initial, seed,
			sim.Options{Workers: w, Pool: pool})
		if err != nil {
			pool.Close()
			return nil, err
		}
		done, ns, err := timedRun(e, steps)
		pool.Close()
		if err != nil {
			return nil, err
		}
		fp := sim.FingerprintConfig(e.Current())
		moves := e.Moves()
		if i == 0 {
			baseNS, baseFP, baseMoves = ns, fp, moves
		}
		div := ns
		if div == 0 {
			div = 1
		}
		stepsPerSec := 1e9 / float64(div)
		movesPerSec := stepsPerSec * float64(moves) / float64(max(done, 1))
		out = append(out, []any{fmt.Sprintf("ring-%d", n), n, w, done, ns,
			fmt.Sprintf("%.0f", stepsPerSec), fmt.Sprintf("%.3g", movesPerSec),
			fmt.Sprintf("%.2f", ratio(baseNS, ns)), ok(fp == baseFP && moves == baseMoves)})
	}
	return out, nil
}

// ratio guards against division by zero in timing columns.
func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// timedRun drives one engine for up to steps transitions, returning
// executed steps and ns/step.
func timedRun(e *sim.Engine[int], steps int) (int, int64, error) {
	start := time.Now()
	done, err := e.Run(steps, nil)
	elapsed := time.Since(start)
	if err != nil {
		return done, 0, err
	}
	return done, elapsed.Nanoseconds() / int64(max(done, 1)), nil
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
	incrMS, fullMS       int64
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

	start := time.Now()
	di, err := inc.Run(steps, nil)
	if err != nil {
		return scalingRow{}, err
	}
	incrMS := time.Since(start).Milliseconds()

	start = time.Now()
	df, err := full.Run(steps, nil)
	if err != nil {
		return scalingRow{}, err
	}
	fullMS := time.Since(start).Milliseconds()

	executed := di
	if executed == 0 {
		executed = 1
	}
	return scalingRow{
		steps:      di,
		evalsIncr:  float64(inc.GuardEvals()) / float64(executed),
		evalsFull:  float64(full.GuardEvals()) / float64(executed),
		incrMS:     incrMS,
		fullMS:     fullMS,
		consistent: di == df && inc.Current().Equal(full.Current()) && inc.Moves() == full.Moves(),
	}, nil
}

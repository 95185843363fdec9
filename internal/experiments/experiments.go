// Package experiments is the reproduction harness: one experiment per
// paper claim (see DESIGN.md §4 for the index). Each experiment returns
// plain-text tables; cmd/specbench prints them, bench_test.go runs them as
// benchmarks, and EXPERIMENTS.md records the measured outcomes next to the
// paper's claims.
//
// Every experiment is a campaign: a grid of cells (topology × daemon ×
// size × intensity) expanded up front, executed cell × trial on the
// deterministic worker pool of internal/campaign, and folded in grid
// order by a thin metric extractor that renders the rows (DESIGN.md §9).
// Per-cell randomness is fixed at grid-expansion time and folds run in
// cell order, so all experiments are deterministic given RunConfig.Seed
// for every worker count. No experiment reads the wall clock: step speed
// is the benchmarks' business.
package experiments

import (
	"fmt"
	"math/rand"
	"sort"

	"specstab/internal/campaign"
	"specstab/internal/graph"
	"specstab/internal/sim"
	"specstab/internal/stats"
)

// RunConfig controls experiment scale.
type RunConfig struct {
	// Quick shrinks instance sizes and trial counts so the whole suite
	// runs in seconds (used by tests); the full suite is minutes.
	Quick bool
	// Seed drives all randomness (default 1 if zero).
	Seed int64
	// Workers caps the cell×trial worker pool (0 = GOMAXPROCS). Tables
	// are bitwise identical for every value — cells are seeded at
	// grid-expansion time and folded in grid order (internal/campaign).
	Workers int
}

// pool is the deterministic worker pool every grid fans out on.
func (c RunConfig) pool() campaign.Pool {
	return campaign.Pool{Workers: c.Workers}
}

func (c RunConfig) seed() int64 {
	if c.Seed == 0 {
		return 1
	}
	return c.Seed
}

func (c RunConfig) rng(salt int64) *rand.Rand {
	return rand.New(sim.NewLazySource(c.seed()*1_000_003 + salt))
}

func (c RunConfig) pick(quick, full int) int {
	if c.Quick {
		return quick
	}
	return full
}

// Experiment is one reproducible paper claim.
type Experiment struct {
	// ID is the short handle (e1..e8).
	ID string
	// Title names the paper artefact being reproduced.
	Title string
	// Run produces the result tables.
	Run func(RunConfig) ([]*stats.Table, error)
}

// Registry returns all experiments in presentation order.
func Registry() []Experiment {
	return []Experiment{
		{ID: "e1", Title: "Figure 1 — the bounded clock cherry(α,K)", Run: E1Clock},
		{ID: "e2", Title: "Theorem 1 — SSME self-stabilizes under ud", Run: E2SelfStabilization},
		{ID: "e3", Title: "Theorem 2 — synchronous stabilization within ⌈diam/2⌉", Run: E3SyncConvergence},
		{ID: "e4", Title: "Theorem 3 — O(diam·n³) moves under ud", Run: E4UnfairConvergence},
		{ID: "e5", Title: "Theorem 4 — the ⌈diam/2⌉ lower bound is attained", Run: E5LowerBound},
		{ID: "e6", Title: "Section 3 — the speculative-stabilization catalogue", Run: E6Catalogue},
		{ID: "e7", Title: "Substrate — asynchronous unison bounds", Run: E7Unison},
		{ID: "e8", Title: "Ablations — clock sizing and exhaustive checking", Run: E8Ablations},
		{ID: "e9", Title: "Extension — daemon spectrum (multi-daemon Definition 4)", Run: E9DaemonSpectrum},
		{ID: "e10", Title: "Extension — fault bursts and re-stabilization", Run: E10FaultStorm},
		{ID: "e11", Title: "Extension — ℓ-exclusion via privilege groups", Run: E11LExclusion},
		{ID: "e12", Title: "Substrate — engine locality scaling (incremental vs full-rescan guard evaluation)", Run: E12Scaling},
		{ID: "e13", Title: "Service — workload-driven grants, live fault storms, client-observed speculation", Run: E13Service},
	}
}

// ByID returns the experiment with the given id.
func ByID(id string) (Experiment, error) {
	for _, e := range Registry() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("experiments: unknown experiment %q", id)
}

// zoo returns the topology sweep shared by the SSME experiments.
func zoo(cfg RunConfig) []*graph.Graph {
	rng := cfg.rng(7)
	if cfg.Quick {
		return []*graph.Graph{
			graph.Ring(8),
			graph.Path(7),
			graph.Star(6),
			graph.Grid(3, 3),
			graph.RandomConnected(8, 4, rng),
		}
	}
	gs := []*graph.Graph{
		graph.Ring(12),
		graph.Ring(17),
		graph.Path(16),
		graph.Star(12),
		graph.Complete(8),
		graph.Grid(4, 5),
		graph.Torus(4, 4),
		graph.Hypercube(4),
		graph.BinaryTree(15),
		graph.Petersen(),
		graph.Wheel(10),
		graph.Lollipop(5, 6),
		graph.RandomTree(14, rng),
		graph.RandomConnected(14, 8, rng),
	}
	sort.Slice(gs, func(i, j int) bool { return gs[i].Name() < gs[j].Name() })
	return gs
}

// rowsCell is the reduce-only grid cell of the structural experiments: run
// computes a cell's finished table rows (in parallel with the other
// cells), and the shared fold appends them in grid order.
type rowsCell struct{ run func() ([][]any, error) }

// runRows executes a rows-cell grid on the pool and appends every cell's
// rows to table in grid order.
func runRows(pool campaign.Pool, table *stats.Table, cells []rowsCell) error {
	return campaign.Sweep(pool, cells,
		func(rowsCell) int { return 1 },
		func(c rowsCell, _ int) ([][]any, error) { return c.run() },
		func(_ rowsCell, outs [][][]any) error {
			for _, row := range outs[0] {
				table.AddRow(row...)
			}
			return nil
		})
}

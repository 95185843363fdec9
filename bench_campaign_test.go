// Micro-benchmarks of the campaign layer (DESIGN.md §9): whole-grid
// execution throughput (cells/sec) on a 3-axis grid, versus the identical
// cells executed by a hand-rolled nested loop around scenario.Build — the
// pre-campaign harness shape (the E12-style bespoke loop). The difference
// is the price of grid expansion, fingerprinting, scheduling and
// aggregation; BENCH_campaign.json records a baseline run and the
// acceptance bar (< 5% overhead).
//
// Run with:
//
//	go test -bench=Campaign -benchtime=5x
package specstab_test

import (
	"testing"

	"specstab/internal/campaign"
	"specstab/internal/scenario"
)

// benchGrid is the 3-axis grid both benchmarks execute: the E12 cell
// shape (token rings driven for a fixed step budget from a random
// configuration) swept over ring size × daemon × seed — 27 cells.
func benchGrid() *campaign.Campaign {
	return &campaign.Campaign{
		Name: "bench-3axis",
		Base: scenario.Scenario{
			Seed:     1,
			Protocol: scenario.ProtocolSpec{Name: "dijkstra"},
			Topology: scenario.TopologySpec{Name: "ring", N: 128},
			Init:     scenario.InitSpec{Mode: "random"},
			Stop:     scenario.StopSpec{Steps: 300},
		},
		Axes: []campaign.Axis{
			{Name: "n", Field: "topology.n", Values: []any{128, 256, 384}},
			{Name: "daemon", Points: []campaign.Point{
				{Label: "sync", Set: map[string]any{"daemon.name": "sync"}},
				{Label: "cd", Set: map[string]any{"daemon.name": "central"}},
				{Label: "dd", Set: map[string]any{"daemon.name": "distributed"}},
			}},
			{Name: "seed", Field: "seed", Values: []any{1, 2, 3}},
		},
		Metrics: []string{"steps", "moves", "rounds"},
	}
}

// BenchmarkCampaignGrid3Axis drives the grid through the campaign runner
// (expansion, fingerprints, scheduler, aggregation, table assembly) on one
// worker, the like-for-like comparison with the hand-rolled loop.
func BenchmarkCampaignGrid3Axis(b *testing.B) { benchCampaignGrid(b, 1) }

// BenchmarkCampaignGrid3AxisWorkers2 is the same grid on two workers: the
// caller and one helper claiming tasks while the caller folds.
func BenchmarkCampaignGrid3AxisWorkers2(b *testing.B) { benchCampaignGrid(b, 2) }

func benchCampaignGrid(b *testing.B, workers int) {
	c := benchGrid()
	cells, err := c.Cells()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := c.Run(campaign.RunOptions{Pool: campaign.Pool{Workers: workers}})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) != len(cells) {
			b.Fatalf("%d rows, want %d", len(res.Rows), len(cells))
		}
	}
	b.ReportMetric(float64(len(cells)*b.N)/b.Elapsed().Seconds(), "cells/sec")
}

// BenchmarkHandRolledGrid3Axis executes the identical 27 cells with the
// bespoke nested loop the experiments used before the campaign layer —
// the overhead baseline.
func BenchmarkHandRolledGrid3Axis(b *testing.B) {
	c := benchGrid()
	cells, err := c.Cells()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := 0
		for _, cell := range cells {
			sc := *cell.Scenario
			r, err := scenario.Build(&sc)
			if err != nil {
				b.Fatal(err)
			}
			if err := r.Execute(); err != nil {
				b.Fatal(err)
			}
			_ = r.Engine().Steps() + r.Engine().Moves() + r.Engine().Rounds()
			rows++
		}
		if rows != len(cells) {
			b.Fatalf("%d rows, want %d", rows, len(cells))
		}
	}
	b.ReportMetric(float64(len(cells)*b.N)/b.Elapsed().Seconds(), "cells/sec")
}

// The benchmark harness regenerating the paper's evaluation: one benchmark
// per experiment of DESIGN.md §4 (BenchmarkE1…BenchmarkE13 wrap the
// internal/experiments tables at -quick size; each b.N iteration
// regenerates the full table set for that claim — BenchmarkE13Service,
// the service storms, is a third of a quick pass), plus micro-benchmarks
// of the substrate's hot paths (clock arithmetic, guard evaluation,
// engine steps) and the engine-locality scaling sweeps
// (BenchmarkStepIncremental vs BenchmarkStepFullRescan, reporting
// guard-evals/step).
//
// Run with:
//
//	go test -bench=. -benchmem
//
// The aggregate tables a full run prints are recorded in EXPERIMENTS.md;
// regenerate them with cmd/specbench.
package specstab_test

import (
	"fmt"
	"math/rand"
	"testing"

	"specstab/internal/clock"
	"specstab/internal/core"
	"specstab/internal/daemon"
	"specstab/internal/dijkstra"
	"specstab/internal/experiments"
	"specstab/internal/graph"
	"specstab/internal/sim"
)

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	exp, err := experiments.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	cfg := experiments.RunConfig{Quick: true, Seed: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tables, err := exp.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(tables) == 0 {
			b.Fatal("no tables")
		}
	}
}

// BenchmarkE1Clock regenerates Figure 1 and the per-topology clock table.
func BenchmarkE1Clock(b *testing.B) { benchExperiment(b, "e1") }

// BenchmarkE2SelfStabilization regenerates the Theorem 1 table.
func BenchmarkE2SelfStabilization(b *testing.B) { benchExperiment(b, "e2") }

// BenchmarkE3SyncConvergence regenerates the Theorem 2 table.
func BenchmarkE3SyncConvergence(b *testing.B) { benchExperiment(b, "e3") }

// BenchmarkE4UnfairConvergence regenerates the Theorem 3 table.
func BenchmarkE4UnfairConvergence(b *testing.B) { benchExperiment(b, "e4") }

// BenchmarkE5LowerBound regenerates the Theorem 4 attainment table.
func BenchmarkE5LowerBound(b *testing.B) { benchExperiment(b, "e5") }

// BenchmarkE6Catalogue regenerates the Section 3 catalogue certificates.
func BenchmarkE6Catalogue(b *testing.B) { benchExperiment(b, "e6") }

// BenchmarkE7Unison regenerates the unison substrate table.
func BenchmarkE7Unison(b *testing.B) { benchExperiment(b, "e7") }

// BenchmarkE8Ablations regenerates the ablation tables.
func BenchmarkE8Ablations(b *testing.B) { benchExperiment(b, "e8") }

// BenchmarkE9DaemonSpectrum regenerates the multi-daemon extension table.
func BenchmarkE9DaemonSpectrum(b *testing.B) { benchExperiment(b, "e9") }

// BenchmarkE10FaultStorm regenerates the fault-injection table.
func BenchmarkE10FaultStorm(b *testing.B) { benchExperiment(b, "e10") }

// BenchmarkE11LExclusion regenerates the ℓ-exclusion extension table.
func BenchmarkE11LExclusion(b *testing.B) { benchExperiment(b, "e11") }

// BenchmarkE12Scaling regenerates the engine-locality scaling table.
func BenchmarkE12Scaling(b *testing.B) { benchExperiment(b, "e12") }

// BenchmarkE13Service regenerates the service tables: workload-driven
// grants and live fault storms through service.Sim.
func BenchmarkE13Service(b *testing.B) { benchExperiment(b, "e13") }

// --- substrate micro-benchmarks ---

// BenchmarkClockOps measures the cherry-clock hot path (φ, d_K, ≤_l) that
// every guard evaluation of unison/SSME goes through.
func BenchmarkClockOps(b *testing.B) {
	x := clock.MustNew(16, 281)
	acc := 0
	for i := 0; i < b.N; i++ {
		v := i%x.Size() - x.Alpha
		acc += x.Phi(v)
		if x.InStab(v) && x.LeqL(v, x.Phi(v)) {
			acc += x.DK(v, 0)
		}
	}
	if acc == -1 {
		b.Fatal("impossible")
	}
}

// BenchmarkSyncStepRing64 measures one synchronous engine step of SSME on
// a 64-ring — the inner loop of every synchronous experiment.
func BenchmarkSyncStepRing64(b *testing.B) {
	g := graph.Ring(64)
	p := core.MustNew(g)
	initial, err := p.UniformConfig(0)
	if err != nil {
		b.Fatal(err)
	}
	e := sim.MustEngine[int](p, daemon.NewSynchronous[int](), initial, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCentralStepGrid measures one random-central step of SSME on a
// grid — the inner loop of every unfair-daemon experiment.
func BenchmarkCentralStepGrid(b *testing.B) {
	g := graph.Grid(8, 8)
	p := core.MustNew(g)
	rng := rand.New(rand.NewSource(1))
	e := sim.MustEngine[int](p, daemon.NewRandomCentral[int](), sim.RandomConfig[int](p, rng), 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFullSyncStabilization measures a complete stabilization run
// (random configuration to Γ₁) on a 32-ring under sd.
func BenchmarkFullSyncStabilization(b *testing.B) {
	g := graph.Ring(32)
	p := core.MustNew(g)
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := sim.MustEngine[int](p, daemon.NewSynchronous[int](), sim.RandomConfig[int](p, rng), 1)
		if _, err := e.Run(p.SyncUnisonHorizon()+1, p.Legitimate); err != nil {
			b.Fatal(err)
		}
		if !p.Legitimate(e.Current()) {
			b.Fatal("did not stabilize within the paper bound")
		}
	}
}

// BenchmarkDiameterSweep measures diam(g) on a graph that is neither a
// cycle nor a tree: the eccentricity sweep, one BFS per source.
func BenchmarkDiameterSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		g := graph.Torus(8, 8)
		if g.Diameter() != 8 {
			b.Fatal("wrong diameter")
		}
	}
}

// --- engine locality scaling benchmarks (the tentpole measurement) ---

// benchEngineStep measures one central-daemon engine step of Dijkstra's
// ring at scale, reporting guard-evaluations-per-step as a custom metric.
// With incremental=true the engine exploits the protocol's sim.Local
// declaration (O(Δ·deg) guard evaluations per step); with false it rescans
// every guard (O(N)). Executions are identical either way.
func benchEngineStep(b *testing.B, n int, incremental bool) {
	b.Helper()
	p := dijkstra.MustNew(n, n)
	rng := rand.New(rand.NewSource(1))
	e := sim.MustEngine[int](p, daemon.NewRandomCentral[int](), sim.RandomConfig[int](p, rng), 1)
	if !incremental {
		e.DisableIncremental()
	}
	start := e.GuardEvals()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Step(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(e.GuardEvals()-start)/float64(b.N), "guard-evals/step")
}

// BenchmarkStepIncremental sweeps ring sizes 1k–64k with the incremental
// enabled-set tracker.
func BenchmarkStepIncremental(b *testing.B) {
	for _, n := range []int{1024, 4096, 16384, 65536} {
		b.Run(fmt.Sprintf("ring-%d", n), func(b *testing.B) { benchEngineStep(b, n, true) })
	}
}

// BenchmarkStepFullRescan is the same sweep with full guard rescans — the
// pre-locality engine behavior, kept as the baseline the scaling claims
// are measured against.
func BenchmarkStepFullRescan(b *testing.B) {
	for _, n := range []int{1024, 4096, 16384, 65536} {
		b.Run(fmt.Sprintf("ring-%d", n), func(b *testing.B) { benchEngineStep(b, n, false) })
	}
}

// BenchmarkSyncStepRing4096Incremental measures the synchronous-daemon
// step at scale on SSME (all enabled vertices fire each step, so the dirty
// set is the whole frontier — the tracker's worst case must not regress
// the hot path).
func BenchmarkSyncStepRing4096Incremental(b *testing.B) {
	g := graph.Ring(4096)
	p := core.MustNew(g)
	initial, err := p.UniformConfig(0)
	if err != nil {
		b.Fatal(err)
	}
	e := sim.MustEngine[int](p, daemon.NewSynchronous[int](), initial, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

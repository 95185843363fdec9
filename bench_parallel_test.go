// Multi-core scaling benchmarks of the persistent shard pool and the
// fused synchronous fast path (DESIGN.md §11): whole engine steps on the
// flat backend, sequential vs shard-parallel, on unison rings of 65536
// and 1048576 vertices in the full-width steady state, and SSME on the
// 8192-ring the repository benchmark's sim-ssme-sd workload steps.
// BENCH_parallel.json records them; they are the repository's only
// measurement of step speed per worker count, and
// TestParallelBenchmarkInvariance checks that every worker count replays
// the same execution.
//
// The parallel sub-benchmarks use Workers:0 (the GOMAXPROCS default), so
// the worker count follows the -cpu flag — the CI smoke step runs
//
//	go test -bench BenchmarkParallel -benchtime 1x -run '^$' -cpu 1,2,4 .
//
// and a scaling curve on a real multi-core host comes from
//
//	go test -bench=Parallel -cpu 1,2,4,8 .
package specstab_test

import (
	"fmt"
	"runtime"
	"testing"

	"specstab/internal/core"
	"specstab/internal/daemon"
	"specstab/internal/graph"
	"specstab/internal/sim"
)

// machineString is the canonical "machine" field of every BENCH_*.json:
// core count and GOMAXPROCS are part of the record because parallel
// figures are meaningless without them. Regenerate a baseline file with
// the string this prints (BenchmarkParallel logs it).
func machineString() string {
	return fmt.Sprintf("%d core(s), GOMAXPROCS=%d, %s/%s, %s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.GOOS, runtime.GOARCH, runtime.Version())
}

// benchParallelStep drives one flat-backend sd engine step per iteration
// and reports moves/sec (the cross-backend throughput currency: one move
// is one fired rule, n per step in the steady state).
func benchParallelStep(b *testing.B, n, workers int) {
	p, initial := ringUnison(b, n)
	e, err := sim.NewEngineWith(p, daemon.NewSynchronous[int](), initial, 1,
		sim.Options{Workers: workers})
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	startMoves := e.Moves()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		progressed, err := e.Step()
		if err != nil {
			b.Fatal(err)
		}
		if !progressed {
			b.Fatal("terminal configuration mid-benchmark")
		}
	}
	b.StopTimer()
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(e.Moves()-startMoves)/secs, "moves/s")
	}
}

// BenchmarkParallelStepUnisonRing is the scaling curve: sequential
// (workers-1) vs pool-parallel (workers-max, i.e. GOMAXPROCS via -cpu) on
// the paper's substrate protocol at full firing width.
func BenchmarkParallelStepUnisonRing(b *testing.B) {
	b.Logf("machine: %s", machineString())
	for _, n := range []int{65536, 1048576} {
		b.Run(fmt.Sprintf("ring-%d/workers-1", n), func(b *testing.B) {
			benchParallelStep(b, n, 1)
		})
		b.Run(fmt.Sprintf("ring-%d/workers-max", n), func(b *testing.B) {
			benchParallelStep(b, n, 0)
		})
	}
}

// BenchmarkSyncStepSSMERing8192 is the in-tree mirror of the sim-ssme-sd
// workload of the repository benchmark (bench/sim.go): synchronous SSME
// steps on an 8192-ring, flat backend, in the steady state where every
// vertex fires NA each step. The workload reaches that state from a
// random start; the uniform-0 start is already in it (under sd all clocks
// of Γ₁ tick together), so two untimed steps only size the scratch
// buffers. It reports ns/vertex and allocs/op — a steady-state step
// allocates nothing (TestFusedStepZeroAlloc in internal/sim pins it):
//
//	go test -bench SyncStepSSMERing8192 -run '^$' -count 5 .
func BenchmarkSyncStepSSMERing8192(b *testing.B) {
	const n = 8192
	b.Logf("machine: %s", machineString())
	p := core.MustNew(graph.Ring(n))
	initial, err := p.UniformConfig(0)
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			e, err := sim.NewEngineWith[int](p, daemon.NewSynchronous[int](), initial, 1,
				sim.Options{Workers: workers})
			if err != nil {
				b.Fatal(err)
			}
			defer e.Close()
			for i := 0; i < 2; i++ {
				if _, err := e.Step(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := e.Step(); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/vertex")
		})
	}
}

// TestParallelBenchmarkInvariance pins the benchmark workload's meaning:
// the sequential and pool-parallel engines the benchmarks time replay the
// identical execution (same fingerprint, steps and moves), so the moves/s
// columns compare equal work.
func TestParallelBenchmarkInvariance(t *testing.T) {
	t.Parallel()
	const n, steps = 65536, 10
	p, initialSeq := ringUnison(t, n)
	ref, err := sim.NewEngineWith(p, daemon.NewSynchronous[int](), initialSeq, 1,
		sim.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < steps; i++ {
		if _, err := ref.Step(); err != nil {
			t.Fatal(err)
		}
	}
	for _, w := range []int{0, 2, 4} {
		e, err := sim.NewEngineWith(p, daemon.NewSynchronous[int](), initialSeq, 1,
			sim.Options{Workers: w})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < steps; i++ {
			if _, err := e.Step(); err != nil {
				t.Fatal(err)
			}
		}
		if got, want := sim.FingerprintConfig(e.Current()), sim.FingerprintConfig(ref.Current()); got != want {
			t.Fatalf("workers=%d: fingerprint %016x, want %016x", w, got, want)
		}
		if e.Moves() != ref.Moves() {
			t.Fatalf("workers=%d: moves %d, want %d", w, e.Moves(), ref.Moves())
		}
		e.Close()
	}
}

// Micro-benchmarks of the packed (flat) engine representation (DESIGN.md
// §6): guard evaluations per second for the batch kernels, and ns/step
// for whole synchronous engine steps, on rings of 4096 and 65536
// vertices. BENCH_flat.json records a baseline run.
//
// Run with:
//
//	go test -bench=Flat -benchmem
package specstab_test

import (
	"fmt"
	"math/rand"
	"testing"

	"specstab/internal/bfstree"
	"specstab/internal/compose"
	"specstab/internal/daemon"
	"specstab/internal/dijkstra"
	"specstab/internal/graph"
	"specstab/internal/sim"
	"specstab/internal/unison"
)

// ringUnison builds unison with the paper's safe parameters on a ring —
// from the uniform-0 configuration every vertex fires NA forever, the
// full-width steady state that makes step costs comparable across b.N.
func ringUnison(tb testing.TB, n int) (*unison.Protocol, sim.Config[int]) {
	tb.Helper()
	g := graph.Ring(n)
	p, err := unison.New(g, unison.SafeParams(g))
	if err != nil {
		tb.Fatal(err)
	}
	return p, make(sim.Config[int], n)
}

// BenchmarkFlatGuardEvalsUnisonRing measures raw guard-evaluation
// throughput of the flat batch kernel over a packed configuration
// (65536-vertex ring, steady state).
func BenchmarkFlatGuardEvalsUnisonRing(b *testing.B) {
	const n = 65536
	p, cfg := ringUnison(b, n)
	st := make([]int64, n)
	vs := make([]int, n)
	rules := make([]sim.Rule, n)
	for v := 0; v < n; v++ {
		vs[v] = v
		p.EncodeState(v, cfg[v], st[v:v+1])
	}

	b.Run("flat", func(b *testing.B) {
		evals := 0
		for i := 0; i < b.N; i++ {
			p.EnabledRuleFlat(st, 1, 0, vs, rules)
			for _, r := range rules {
				if r != sim.NoRule {
					evals++
				}
			}
		}
		b.ReportMetric(float64(n), "guard-evals/op")
		if evals == 0 {
			b.Fatal("steady state must be enabled everywhere")
		}
	})
}

// benchStep drives one engine step per iteration and reports
// guard-evals/step.
func benchStep[S comparable](b *testing.B, p sim.Protocol[S], initial sim.Config[S]) {
	b.Helper()
	e, err := sim.NewEngineWith(p, daemon.NewSynchronous[S](), initial, 1, sim.Options{Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	start := e.GuardEvals()
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
	b.ReportMetric(float64(e.GuardEvals()-start)/float64(b.N), "guard-evals/step")
}

// BenchmarkStepBackendUnisonRing is the sd step on the paper's substrate
// protocol: full-width steady state, every vertex fires NA each step.
func BenchmarkStepBackendUnisonRing(b *testing.B) {
	for _, n := range []int{4096, 65536} {
		p, initial := ringUnison(b, n)
		b.Run(fmt.Sprintf("ring-%d/flat", n), func(b *testing.B) {
			benchStep[int](b, p, initial)
		})
	}
}

// BenchmarkStepBackendDijkstraRing65536 is the sd step on Dijkstra's
// token ring from a random configuration (the ~n-step drain keeps roughly
// half the ring enabled for far longer than any realistic b.N).
func BenchmarkStepBackendDijkstraRing65536(b *testing.B) {
	const n = 65536
	p := dijkstra.MustNew(n, n)
	initial := sim.RandomConfig[int](p, rand.New(rand.NewSource(7)))
	b.Run("flat", func(b *testing.B) { benchStep[int](b, p, initial) })
}

// BenchmarkStepBackendCompositionRing4096 measures the zero-copy
// composition: the flat product reads the shared packed array at
// component offsets, with no projection copies.
func BenchmarkStepBackendCompositionRing4096(b *testing.B) {
	const n = 4096
	g := graph.Ring(n)
	uni, err := unison.New(g, unison.SafeParams(g))
	if err != nil {
		b.Fatal(err)
	}
	prod := compose.MustNew[int, int](uni, bfstree.MustNew(g, 0))
	initial := make(sim.Config[compose.Pair[int, int]], n)
	for v := range initial {
		initial[v] = compose.Pair[int, int]{First: 0, Second: v % 5}
	}
	b.Run("flat", func(b *testing.B) {
		benchStep[compose.Pair[int, int]](b, prod, initial)
	})
}

// Micro-benchmarks of the mutual-exclusion service layer: ns/tick and
// grants/tick for a closed-loop client population multiplexed over a
// 65536-vertex flat-backend ring, on SSME and on Dijkstra's token ring.
// BENCH_service.json records a baseline run.
//
// The pair quantifies the paper's trade-off in service terms: legitimate
// SSME serves exactly one grant per privilege-rotation slot (privilege
// values sit 2·diam apart on the clock, so ~1/n grants per synchronous
// tick), while Dijkstra's token passes one vertex per tick (~1 grant per
// tick) — SSME buys its ⌈diam/2⌉ recovery with rotation throughput.
//
// Run with:
//
//	go test -bench=Service -benchmem
package specstab_test

import (
	"testing"

	"specstab/internal/core"
	"specstab/internal/daemon"
	"specstab/internal/dijkstra"
	"specstab/internal/graph"
	"specstab/internal/service"
	"specstab/internal/sim"
)

// benchServiceTicks drives b.N service ticks and reports grants/tick.
func benchServiceTicks(b *testing.B, s *service.Sim) {
	b.Helper()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		progressed, err := s.Tick()
		if err != nil {
			b.Fatal(err)
		}
		if !progressed {
			b.Fatal("service went terminal mid-benchmark")
		}
	}
	b.StopTimer()
	m := s.Totals()
	b.ReportMetric(m.GrantsPerTick, "grants/tick")
	b.ReportMetric(float64(m.Backlog), "backlog")
}

// newRingService builds a closed-loop service over a 65536-vertex ring:
// one million clients, think times staggered over 1024 ticks.
func newRingService(b *testing.B, lock service.Lock, initial sim.Config[int]) *service.Sim {
	b.Helper()
	const clients = 1_000_000
	wl, err := service.NewClosedLoop(lock.N(), clients, 0, 1023)
	if err != nil {
		b.Fatal(err)
	}
	s, err := service.New(lock, daemon.NewSynchronous[int](), initial, 1, wl,
		service.Options{})
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// BenchmarkServiceTickSSMERing65536 is the BENCH_service.json baseline:
// closed-loop grants/sec on a 65536-ring flat-backend SSME instance
// (grants/sec = grants/tick ÷ ns/tick · 10⁹). The initial configuration
// is the uniform clock sitting exactly at vertex 0's privilege value —
// legitimate, with the first grant at tick 0 and one grant per 2·diam =
// 65536 ticks thereafter (the rotation cadence; run with
// -benchtime=131074x or more to observe the steady rate).
func BenchmarkServiceTickSSMERing65536(b *testing.B) {
	const n = 65536
	p, err := core.New(graph.Ring(n))
	if err != nil {
		b.Fatal(err)
	}
	initial := make(sim.Config[int], n)
	for v := range initial {
		initial[v] = p.PrivilegeValue(0)
	}
	benchServiceTicks(b, newRingService(b, p, initial))
}

// BenchmarkServiceTickDijkstraRing65536 is the token-ring contrast: the
// same population served at ~1 grant/tick.
func BenchmarkServiceTickDijkstraRing65536(b *testing.B) {
	const n = 65536
	benchServiceTicks(b, newRingService(b, dijkstra.MustNew(n, n), make(sim.Config[int], n)))
}

// BenchmarkServiceTickSSMERing4096 is the small-instance figure, where
// the per-tick service overhead (arrivals, privilege refresh, grant
// scan) is visible next to the engine step.
func BenchmarkServiceTickSSMERing4096(b *testing.B) {
	const n = 4096
	p, err := core.New(graph.Ring(n))
	if err != nil {
		b.Fatal(err)
	}
	wl, err := service.NewClosedLoop(n, 8*n, 0, 255)
	if err != nil {
		b.Fatal(err)
	}
	s, err := service.New(p, daemon.NewSynchronous[int](), make(sim.Config[int], n), 1, wl,
		service.Options{})
	if err != nil {
		b.Fatal(err)
	}
	benchServiceTicks(b, s)
}

package service_test

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"specstab/internal/core"
	"specstab/internal/daemon"
	"specstab/internal/dijkstra"
	"specstab/internal/graph"
	"specstab/internal/lexclusion"
	"specstab/internal/service"
	"specstab/internal/sim"
)

// legitRing returns SSME on a ring with the all-zero (legitimate) initial
// configuration.
func legitRing(t testing.TB, n int) (*core.Protocol, sim.Config[int]) {
	t.Helper()
	p, err := core.New(graph.Ring(n))
	if err != nil {
		t.Fatal(err)
	}
	return p, make(sim.Config[int], n)
}

// TestDijkstraClosedLoopThroughput: Dijkstra's legitimate ring passes the
// token one vertex per synchronous step, so with a client waiting
// everywhere the service approaches one grant per tick — the throughput
// baseline SSME trades away for fast stabilization.
func TestDijkstraClosedLoopThroughput(t *testing.T) {
	t.Parallel()
	const n = 8
	p := dijkstra.MustNew(n, n)
	s, err := service.New(p, daemon.NewSynchronous[int](), make(sim.Config[int], n), 1,
		service.MustClosedLoop(n, n, 0, 0), service.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := runFully(t, s, 400); err != nil {
		t.Fatal(err)
	}
	m := s.Totals()
	if m.Grants == 0 {
		t.Fatal("no grants served")
	}
	if m.GrantsPerTick < 0.5 {
		t.Fatalf("grants/tick = %.3f, want ≥ 0.5 on a legitimate Dijkstra ring", m.GrantsPerTick)
	}
	if m.UnsafeTicks != 0 {
		t.Fatalf("unsafe ticks = %d on an always-legitimate execution", m.UnsafeTicks)
	}
	if m.JainVertices < 0.9 {
		t.Fatalf("jain(vertices) = %.3f, want ≥ 0.9 for round-robin token service", m.JainVertices)
	}
}

// TestSSMEServiceRotation: legitimate SSME grants exactly one privilege
// per clock rotation per vertex, in cyclic id order; over a ServiceWindow
// every vertex must be served, safely.
func TestSSMEServiceRotation(t *testing.T) {
	t.Parallel()
	const n = 9
	p, initial := legitRing(t, n)
	s, err := service.New(p, daemon.NewSynchronous[int](), initial, 3,
		service.MustClosedLoop(n, n, 0, 0), service.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := runFully(t, s, p.ServiceWindow()); err != nil {
		t.Fatal(err)
	}
	m := s.Totals()
	if m.Grants < int64(n) {
		t.Fatalf("grants = %d over a ServiceWindow, want ≥ n = %d", m.Grants, n)
	}
	if m.UnsafeTicks != 0 {
		t.Fatalf("unsafe ticks = %d from a legitimate start", m.UnsafeTicks)
	}
	if m.JainClients < 0.8 {
		t.Fatalf("jain(clients) = %.3f, want ≥ 0.8 for rotation service", m.JainClients)
	}
}

// TestLExclusionCapacity: an ℓ-exclusion lock with Capacity ℓ must admit
// concurrent grants without reporting unsafe ticks once legitimate.
func TestLExclusionCapacity(t *testing.T) {
	t.Parallel()
	g := graph.Ring(8)
	p := lexclusion.MustNew(g, 2)
	initial, err := p.UniformConfig(0)
	if err != nil {
		t.Fatal(err)
	}
	s, err := service.New(p, daemon.NewSynchronous[int](), initial, 5,
		service.MustClosedLoop(8, 8, 0, 0), service.Options{Capacity: p.L()})
	if err != nil {
		t.Fatal(err)
	}
	if err := runFully(t, s, p.ServiceWindow()); err != nil {
		t.Fatal(err)
	}
	m := s.Totals()
	if m.Grants < 8 {
		t.Fatalf("grants = %d, want ≥ 8 over a service window", m.Grants)
	}
	if m.UnsafeTicks != 0 {
		t.Fatalf("unsafe ticks = %d with capacity ℓ from a legitimate start", m.UnsafeTicks)
	}
}

// TestOpenLoopOverloadGrowsBacklog: SSME's rotation throughput is ~1/n
// grants per tick; an open-loop rate far above it must pile requests up
// and age them — the starvation measure at work.
func TestOpenLoopOverloadGrowsBacklog(t *testing.T) {
	t.Parallel()
	const n = 8
	p, initial := legitRing(t, n)
	s, err := service.New(p, daemon.NewSynchronous[int](), initial, 7,
		service.MustOpenLoop(n, 1.0), service.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := runFully(t, s, 300); err != nil {
		t.Fatal(err)
	}
	m := s.Totals()
	if m.Backlog < 100 {
		t.Fatalf("backlog = %d after 300 overloaded ticks, want ≥ 100", m.Backlog)
	}
	if m.StarveMax <= 0 || m.StarveP95 <= 0 {
		t.Fatalf("starvation ages (p95 %.0f, max %.0f) must be positive under overload", m.StarveP95, m.StarveMax)
	}
	if m.Requests <= m.Grants {
		t.Fatal("open-loop overload must out-arrive the grant stream")
	}
}

// TestStormRecovers: a full-corruption burst against a running SSME
// service must stall the grant stream only briefly (the speculation
// promise) and re-enter legitimacy autonomously.
func TestStormRecovers(t *testing.T) {
	t.Parallel()
	const n = 8
	p, initial := legitRing(t, n)
	s, err := service.New(p, daemon.NewSynchronous[int](), initial, 11,
		service.MustClosedLoop(n, n, 0, 0), service.Options{})
	if err != nil {
		t.Fatal(err)
	}
	recs, err := s.Storm(3, service.StormOptions{
		WarmTicks:    p.ServiceWindow(),
		Corrupt:      n,
		HorizonTicks: 2 * p.ServiceWindow(),
		SettleTicks:  64,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("got %d recoveries, want 3", len(recs))
	}
	for i, rec := range recs {
		if !rec.Resumed {
			t.Fatalf("burst %d: grant stream never resumed (stall %d)", i, rec.StallTicks)
		}
		if rec.LegitTicks < 0 {
			t.Fatalf("burst %d: legitimacy never re-entered", i)
		}
		if rec.Pre.Grants == 0 {
			t.Fatalf("burst %d: pre-fault window served no grants — warm window too short", i)
		}
		if rec.StallTicks > 2*p.ServiceWindow() {
			t.Fatalf("burst %d: stall %d exceeds the horizon", i, rec.StallTicks)
		}
	}
}

// TestServiceWorkerInvariance is the acceptance differential: the same
// seeded service execution — including a live mid-run fault burst — must
// fingerprint bitwise identically across engine worker counts and shard
// sizes. ShardSize 1 and 2 force the parallel phases even at n=16.
func TestServiceWorkerInvariance(t *testing.T) {
	t.Parallel()
	const n = 16
	drive := func(opts sim.Options) (uint64, service.Metrics) {
		p, initial := legitRing(t, n)
		s, err := service.New(p, daemon.NewDistributed[int](0.5), initial, 21,
			service.MustClosedLoop(n, 4*n, 1, 7), service.Options{Hold: 2, Engine: opts})
		if err != nil {
			t.Fatal(err)
		}
		if err := runFully(t, s, 200); err != nil {
			t.Fatal(err)
		}
		if err := s.InjectBurst(n); err != nil {
			t.Fatal(err)
		}
		if err := runFully(t, s, 300); err != nil {
			t.Fatal(err)
		}
		return s.Fingerprint(), s.Totals()
	}
	refFP, refM := drive(sim.Options{Workers: 1})
	variants := []sim.Options{
		{Workers: 8, ShardSize: 1},
		{Workers: 4, ShardSize: 2},
		{Workers: runtime.GOMAXPROCS(0), ShardSize: 2},
		{Workers: 8},
	}
	for i, opts := range variants {
		fp, m := drive(opts)
		if fp != refFP {
			t.Fatalf("variant %d (workers %d, shard %d): fingerprint %x diverges from reference %x",
				i, opts.Workers, opts.ShardSize, fp, refFP)
		}
		if m != refM {
			t.Fatalf("variant %d: metrics diverge: %+v vs %+v", i, m, refM)
		}
	}
}

// TestFingerprintSensitivity: different seeds must fingerprint apart —
// otherwise the invariance test above proves nothing.
func TestFingerprintSensitivity(t *testing.T) {
	t.Parallel()
	fp := func(seed int64) uint64 {
		p, initial := legitRing(t, 8)
		s, err := service.New(p, daemon.NewDistributed[int](0.5), initial, seed,
			service.MustClosedLoop(8, 8, 0, 3), service.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := runFully(t, s, 120); err != nil {
			t.Fatal(err)
		}
		return s.Fingerprint()
	}
	if fp(1) == fp(2) {
		t.Fatal("distinct seeds produced identical fingerprints")
	}
}

// TestWorkloadValidation pins the constructor error paths.
func TestWorkloadValidation(t *testing.T) {
	t.Parallel()
	if _, err := service.NewClosedLoop(0, 1, 0, 0); err == nil {
		t.Error("want error for 0 vertices")
	}
	if _, err := service.NewClosedLoop(4, 0, 0, 0); err == nil {
		t.Error("want error for empty population")
	}
	if _, err := service.NewClosedLoop(4, 4, 3, 1); err == nil {
		t.Error("want error for inverted think range")
	}
	if _, err := service.NewOpenLoop(4, 0); err == nil {
		t.Error("want error for zero rate")
	}
	if _, err := service.NewOpenLoop(4, 1e9); err == nil {
		t.Error("want error for absurd rate")
	}
	p := dijkstra.MustNew(4, 4)
	if _, err := service.New(p, daemon.NewSynchronous[int](), make(sim.Config[int], 4), 1,
		service.MustClosedLoop(4, 4, 0, 0), service.Options{Hold: -1}); err == nil {
		t.Error("want error for negative hold")
	}
	if _, err := service.New(nil, daemon.NewSynchronous[int](), nil, 1, nil, service.Options{}); err == nil {
		t.Error("want error for missing lock/workload")
	}
}

// TestOpenLoopDeterminism: the Poisson arrival stream is a pure function
// of the seed.
func TestOpenLoopDeterminism(t *testing.T) {
	t.Parallel()
	draw := func() []int32 {
		w := service.MustOpenLoop(8, 2.5)
		rng := rand.New(rand.NewSource(9))
		var got []int32
		for tick := int64(0); tick < 50; tick++ {
			w.Arrivals(tick, rng, func(c, v int32) { got = append(got, c, v) })
		}
		return got
	}
	a, b := draw(), draw()
	if len(a) != len(b) {
		t.Fatalf("arrival streams diverge in length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("arrival streams diverge at %d", i)
		}
	}
	if len(a) == 0 {
		t.Fatal("rate 2.5 over 50 ticks produced no arrivals")
	}
}

// runFully drives the sim and fails on early termination.
func runFully(t testing.TB, s *service.Sim, ticks int) error {
	t.Helper()
	done, err := s.Run(ticks)
	if err != nil {
		return err
	}
	if done != ticks {
		t.Fatalf("service went terminal after %d of %d ticks", done, ticks)
	}
	return nil
}

// TestTickZeroAlloc: once warm, a closed-loop tick — completions,
// arrivals, the grant pass and the engine step — allocates nothing. SSME
// under sd takes the fused engine step, Dijkstra's legitimate token ring
// the general one (one enabled vertex per step). E13's storms run through
// this loop. Under a central daemon a 16-vertex SSME ring takes sparse
// general steps whose dirty sets both insert into and delete from the
// patched enabled and privilege lists; the measured ticks must do both.
func TestTickZeroAlloc(t *testing.T) {
	if raceDetector {
		t.Skip("race instrumentation allocates")
	}
	const n = 64
	ssme, initial := legitRing(t, n)
	small, smallInit := legitRing(t, 16)
	for _, c := range []struct {
		name    string
		p       service.Lock
		d       sim.Daemon[int]
		initial sim.Config[int]
		patches bool
	}{
		{"ssme", ssme, daemon.NewSynchronous[int](), initial, false},
		{"dijkstra", dijkstra.MustNew(n, n), daemon.NewSynchronous[int](), initial, false},
		{"ssme-central", small, daemon.NewRandomCentral[int](), smallInit, true},
	} {
		n := c.p.N()
		s, err := service.New(c.p, c.d, c.initial, 3,
			service.MustClosedLoop(n, 4*n, 0, 7), service.Options{Hold: 2, Lease: 5})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Run(20000); err != nil {
			t.Fatal(err)
		}
		grants := s.Grants()
		prevEnabled := make([]int, 0, n)
		prevPriv := make([]int, 0, n)
		var flips [4]int // enabled inserts, deletes; privilege inserts, deletes
		allocs := testing.AllocsPerRun(5000, func() {
			if c.patches {
				prevEnabled = append(prevEnabled[:0], s.Engine().Enabled()...)
				prevPriv = append(prevPriv[:0], s.PrivList()...)
			}
			s.Tick()
			if c.patches {
				i, d := listDiff(prevEnabled, s.Engine().Enabled())
				flips[0], flips[1] = flips[0]+i, flips[1]+d
				i, d = listDiff(prevPriv, s.PrivList())
				flips[2], flips[3] = flips[2]+i, flips[3]+d
			}
		})
		if allocs != 0 {
			t.Errorf("%s: a warm tick allocates %.2f times", c.name, allocs)
		}
		if s.Grants() == grants {
			t.Errorf("%s: no grant during the measured ticks", c.name)
		}
		if c.patches && slices.Contains(flips[:], 0) {
			t.Errorf("%s: the measured ticks patched the lists by %v (enabled inserts, deletes; privilege inserts, deletes); want each", c.name, flips)
		}
	}
}

// listDiff counts the entries only in next (inserted) and only in prev
// (deleted), both sorted, without allocating.
func listDiff(prev, next []int) (inserted, deleted int) {
	i, j := 0, 0
	for i < len(prev) || j < len(next) {
		switch {
		case j == len(next) || (i < len(prev) && prev[i] < next[j]):
			deleted++
			i++
		case i == len(prev) || next[j] < prev[i]:
			inserted++
			j++
		default:
			i++
			j++
		}
	}
	return inserted, deleted
}

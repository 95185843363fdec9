package sim_test

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"specstab/internal/daemon"
	"specstab/internal/dijkstra"
	"specstab/internal/sim"
)

// TestLazySourceStream: a generator on a LazySource draws exactly the
// stream of one on rand.NewSource, through every draw path the daemons
// and protocols use, at the seeds where math/rand's seeding has edges
// (0 and the multiples of 2³¹−1 it maps to 89482311, negative seeds, the
// int64 extremes), at 2,000 random seeds, and after a reseed in
// mid-stream.
func TestLazySourceStream(t *testing.T) {
	t.Parallel()
	draws := map[string]func(r *rand.Rand) uint64{
		"Int63":   func(r *rand.Rand) uint64 { return uint64(r.Int63()) },
		"Uint64":  func(r *rand.Rand) uint64 { return r.Uint64() },
		"Intn":    func(r *rand.Rand) uint64 { return uint64(r.Intn(1000)) },
		"Float64": func(r *rand.Rand) uint64 { return math.Float64bits(r.Float64()) },
	}
	same := func(t *testing.T, lazy, eager *rand.Rand, what string, k int) {
		t.Helper()
		for i := 0; i < k; i++ {
			for _, name := range []string{"Int63", "Uint64", "Intn", "Float64"} {
				if got, want := draws[name](lazy), draws[name](eager); got != want {
					t.Fatalf("%s: %s draw %d = %d, want %d", what, name, i, got, want)
				}
			}
		}
	}
	const pm = 1<<31 - 1
	for _, seed := range []int64{0, 1, 2, -7, 42, math.MaxInt64, -math.MaxInt64, math.MinInt64, pm, -pm, 2 * pm, 89482311} {
		what := fmt.Sprintf("seed %d", seed)
		lazy, eager := rand.New(sim.NewLazySource(seed)), rand.New(rand.NewSource(seed))
		same(t, lazy, eager, what, 5000/4)
		// A reseed in mid-stream restarts the register from the new seed,
		// whatever position the old stream had reached.
		lazy.Seed(seed + 1)
		eager.Seed(seed + 1)
		same(t, lazy, eager, what+" reseeded", 700)
	}
	seeds := rand.New(rand.NewSource(20130722))
	for i := 0; i < 2000; i++ {
		seed := int64(seeds.Uint64())
		lazy, eager := rand.New(sim.NewLazySource(seed)), rand.New(rand.NewSource(seed))
		same(t, lazy, eager, fmt.Sprintf("random seed %d", seed), 700/4+1)
	}
	var zero sim.LazySource
	if got, want := rand.New(&zero).Int63(), rand.New(rand.NewSource(0)).Int63(); got != want {
		t.Fatalf("zero LazySource draws %d, want seed 0's %d", got, want)
	}
}

// TestLazySourceAllocs: a source that never draws allocates nothing, even
// when reseeded; the first draw allocates the register and nothing else;
// a reseed reuses it.
func TestLazySourceAllocs(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector allocates on its own")
	}
	var keep uint64
	if a := testing.AllocsPerRun(100, func() {
		s := sim.NewLazySource(42)
		s.Seed(43)
	}); a != 0 {
		t.Errorf("never-drawing source: %.0f allocs, want 0", a)
	}
	if a := testing.AllocsPerRun(100, func() {
		s := sim.NewLazySource(42)
		keep += s.Uint64()
	}); a != 1 {
		t.Errorf("first draw: %.0f allocs, want 1 (the register)", a)
	}
	var before, after runtime.MemStats
	const k = 100
	runtime.ReadMemStats(&before)
	for i := 0; i < k; i++ {
		s := sim.NewLazySource(int64(i))
		keep += s.Uint64()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / k; per > 4864 {
		t.Errorf("first draw: %d bytes, want ≤ 4864 (607 words in their size class)", per)
	}
	reused := sim.NewLazySource(1)
	keep += reused.Uint64()
	if a := testing.AllocsPerRun(100, func() {
		reused.Seed(7)
		keep += reused.Uint64()
	}); a != 0 {
		t.Errorf("reseed and draw: %.0f allocs, want 0", a)
	}
	_ = keep
}

// TestDeterministicDaemonsNeverSeed: an engine whose daemon never draws
// never seeds its generator, however long it runs; one whose daemon
// draws seeds it at the first step.
func TestDeterministicDaemonsNeverSeed(t *testing.T) {
	t.Parallel()
	const n, steps = 8, 100
	p := dijkstra.MustNew(n, n) // one token circulates forever
	initial := make(sim.Config[int], n)
	run := func(d sim.Daemon[int]) (*sim.Engine[int], [][]int) {
		e, err := sim.NewEngineWith[int](p, d, initial, 1, sim.Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		var schedule [][]int
		e.AddHook(func(info sim.StepInfo) { schedule = append(schedule, append([]int(nil), info.Activated...)) })
		drive(t, e, steps)
		if e.Steps() != steps {
			t.Fatalf("%s: %d steps, want %d", d.Name(), e.Steps(), steps)
		}
		return e, schedule
	}
	e, schedule := run(daemon.NewMinIDCentral[int]())
	if e.Seeded() {
		t.Errorf("min-id: generator seeded after %d steps", steps)
	}
	for _, d := range []sim.Daemon[int]{
		daemon.NewMaxIDCentral[int](),
		daemon.NewRoundRobin[int](n),
		daemon.NewGreedyCentral[int](p, func(sim.Config[int], int) int64 { return 0 }),
		daemon.NewRulePriorityCentral[int](p, nil),
		daemon.NewRecorded[int](schedule),
	} {
		if e, _ := run(d); e.Seeded() {
			t.Errorf("%s: generator seeded after %d steps", d.Name(), steps)
		}
	}
	if e, _ := run(daemon.NewRandomCentral[int]()); !e.Seeded() {
		t.Error("random-central: generator not seeded after drawing")
	}
}

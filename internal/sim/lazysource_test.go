package sim_test

import (
	"math"
	"math/rand"
	"testing"

	"specstab/internal/daemon"
	"specstab/internal/dijkstra"
	"specstab/internal/sim"
)

// TestLazySourceStream: a generator on a LazySource draws exactly the
// stream of one on rand.NewSource, through every draw path the daemons
// and protocols use, and again after a reseed.
func TestLazySourceStream(t *testing.T) {
	t.Parallel()
	draws := map[string]func(r *rand.Rand) uint64{
		"Int63":   func(r *rand.Rand) uint64 { return uint64(r.Int63()) },
		"Uint64":  func(r *rand.Rand) uint64 { return r.Uint64() },
		"Intn":    func(r *rand.Rand) uint64 { return uint64(r.Intn(1000)) },
		"Float64": func(r *rand.Rand) uint64 { return math.Float64bits(r.Float64()) },
	}
	for _, seed := range []int64{0, 1, -7, math.MaxInt64} {
		for name, draw := range draws {
			lazy, eager := rand.New(sim.NewLazySource(seed)), rand.New(rand.NewSource(seed))
			for i := 0; i < 1000; i++ {
				if got, want := draw(lazy), draw(eager); got != want {
					t.Fatalf("seed %d: %s draw %d = %d, want %d", seed, name, i, got, want)
				}
			}
			lazy.Seed(seed + 1)
			eager.Seed(seed + 1)
			if got, want := draw(lazy), draw(eager); got != want {
				t.Fatalf("seed %d: %s after reseed = %d, want %d", seed, name, got, want)
			}
		}
	}
	var zero sim.LazySource
	if got, want := rand.New(&zero).Int63(), rand.New(rand.NewSource(0)).Int63(); got != want {
		t.Fatalf("zero LazySource draws %d, want seed 0's %d", got, want)
	}
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
		daemon.NewGreedyCentral[int](p, func(sim.Config[int]) float64 { return 0 }),
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

package compose_test

// Satellite regression tests for the former concurrency hazard: Product
// used to share projection scratch buffers across guard evaluations, so
// compositions could not run under concurrent.RoundNetwork or the
// engine's shard-parallel step. The buffers are pooled and the interning
// table is filled once at construction now; these tests drive both
// concurrent paths and are meant to run under the race detector (CI does).

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"specstab/internal/bfstree"
	"specstab/internal/compose"
	"specstab/internal/concurrent"
	"specstab/internal/daemon"
	"specstab/internal/graph"
	"specstab/internal/sim"
	"specstab/internal/unison"
)

// newRand returns a seeded generator for test configurations.
func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// newTestProduct builds unison × bfstree on a grid — both components
// flat and rule-bounded, so the product is flat.
func newTestProduct(t *testing.T) *compose.Product[int, int] {
	t.Helper()
	g := graph.Grid(3, 3)
	uni, err := unison.New(g, unison.MinimalParams(g))
	if err != nil {
		t.Fatal(err)
	}
	return compose.MustNew[int, int](uni, bfstree.MustNew(g, 0))
}

// TestProductUnderRoundNetwork runs a composition through the
// barrier-synchronized concurrent deployment: EnabledRule/Apply are
// invoked from one goroutine per vertex against the frozen round
// configuration, which races on any shared scratch.
func TestProductUnderRoundNetwork(t *testing.T) {
	t.Parallel()
	prod := newTestProduct(t)
	initial := make(sim.Config[compose.Pair[int, int]], prod.N())
	for v := range initial {
		initial[v] = compose.Pair[int, int]{First: -v % 3, Second: v % 4}
	}
	rn, err := concurrent.NewRoundNetwork[compose.Pair[int, int]](prod, initial)
	if err != nil {
		t.Fatal(err)
	}
	done, err := rn.RunRounds(context.Background(), 30)
	if err != nil {
		t.Fatal(err)
	}
	// The concurrent rounds must equal the sequential synchronous steps.
	e := sim.MustEngine[compose.Pair[int, int]](prod, daemon.NewSynchronous[compose.Pair[int, int]](), initial, 1)
	for i := 0; i < done; i++ {
		if _, err := e.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if !rn.Snapshot().Equal(e.Current()) {
		t.Fatal("RoundNetwork and sequential synchronous engine diverge on a composition")
	}
}

// TestProductSharedAcrossEngines drives several engines over ONE Product
// value concurrently — the pooled projections and the read-only rule
// table must keep them independent.
func TestProductSharedAcrossEngines(t *testing.T) {
	t.Parallel()
	prod := newTestProduct(t)
	var wg sync.WaitGroup
	for seed := int64(1); seed <= 4; seed++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			e, err := sim.NewEngineWith[compose.Pair[int, int]](prod,
				daemon.NewDistributed[compose.Pair[int, int]](0.5),
				sim.RandomConfig[compose.Pair[int, int]](prod, newRand(seed)), seed,
				sim.Options{Workers: 4, ShardSize: 2})
			if err != nil {
				t.Error(err)
				return
			}
			if _, err := e.Run(60, nil); err != nil {
				t.Error(err)
			}
		}(seed)
	}
	wg.Wait()
}

// TestProductParallelStepMatchesSequential runs the shard-parallel engine
// against the sequential one on a composition under the synchronous
// daemon.
func TestProductParallelStepMatchesSequential(t *testing.T) {
	t.Parallel()
	prod := newTestProduct(t)
	initial := sim.RandomConfig[compose.Pair[int, int]](prod, newRand(7))

	seq, err := sim.NewEngineWith[compose.Pair[int, int]](prod,
		daemon.NewSynchronous[compose.Pair[int, int]](), initial, 7,
		sim.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := sim.NewEngineWith[compose.Pair[int, int]](prod,
		daemon.NewSynchronous[compose.Pair[int, int]](), initial, 7,
		sim.Options{Workers: 4, ShardSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		ps, err := seq.Step()
		if err != nil {
			t.Fatal(err)
		}
		pp, err := par.Step()
		if err != nil {
			t.Fatal(err)
		}
		if ps != pp {
			t.Fatalf("step %d: progress diverges", i)
		}
		if !seq.Current().Equal(par.Current()) {
			t.Fatalf("step %d: configurations diverge", i)
		}
		if !ps {
			break
		}
	}
}

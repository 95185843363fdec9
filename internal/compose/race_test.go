package compose_test

// Regression tests for the former concurrency hazard: Product used to
// share projection scratch buffers across guard evaluations, so
// compositions could not run under the engine's shard-parallel step. The
// buffers are pooled and the interning table is filled once at
// construction now; these tests evaluate one Product's guards from many
// goroutines and are meant to run under the race detector (CI does).

import (
	"math/rand"
	"sync"
	"testing"

	"specstab/internal/bfstree"
	"specstab/internal/compose"
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

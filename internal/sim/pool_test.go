package sim_test

// Engine-level validation of the persistent shard pool and the fused
// synchronous fast path: fingerprint invariance across worker counts and
// shard sizes (ISSUE 7's acceptance grid — Workers ∈ {1,2,4,GOMAXPROCS} ×
// ShardSize ∈ {1,2,DefaultShardSize}), pool reuse across SetConfig, pool
// sharing across engines, the closed-pool inline fallback, and the
// Options validation surface. The unison ring under sd drives the fused
// dense path (full and partial firing fronts); dijkstra under sd stays
// sparse and pins the gate's fallback; the distributed daemon exercises
// the general sharded path with non-aliased selections.

import (
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"specstab/internal/daemon"
	"specstab/internal/dijkstra"
	"specstab/internal/graph"
	"specstab/internal/sim"
	"specstab/internal/unison"
)

// unisonRing builds the flat-capable unison protocol on a ring of n.
func unisonRing(t *testing.T, n int) sim.Protocol[int] {
	t.Helper()
	g := graph.Ring(n)
	p, err := unison.New(g, unison.MinimalParams(g))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// drive runs e for exactly steps transitions (or until terminal).
func drive(t *testing.T, e *sim.Engine[int], steps int) {
	t.Helper()
	for i := 0; i < steps; i++ {
		progressed, err := e.Step()
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		if !progressed {
			return
		}
	}
}

// workerShardGrid is the acceptance grid of ISSUE 7.
func workerShardGrid() (workers, shardSizes []int) {
	return []int{1, 2, 4, runtime.GOMAXPROCS(0)}, []int{1, 2, sim.DefaultShardSize}
}

// invarianceCheck drives the reference stepper and every worker×shard
// engine variant from the same initial configuration and seed,
// asserting identical fingerprints, counters, and — across the flat
// variants — identical guard-evaluation accounting.
func invarianceCheck(t *testing.T, p sim.Protocol[int], mkd func() sim.Daemon[int], seed int64, steps int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	initial := sim.RandomConfig(p, rng)

	ref := newRefStepper(p, mkd(), initial, seed)
	for i := 0; i < steps; i++ {
		_, progressed, err := ref.step()
		if err != nil {
			t.Fatalf("reference step %d: %v", i, err)
		}
		if !progressed {
			break
		}
	}
	wantFP := sim.FingerprintConfig(ref.cfg)

	workers, shardSizes := workerShardGrid()
	var guardEvals int64 = -1
	for _, wk := range workers {
		for _, ss := range shardSizes {
			e, err := sim.NewEngineWith(p, mkd(), initial, seed, sim.Options{Workers: wk, ShardSize: ss})
			if err != nil {
				t.Fatalf("workers=%d shard=%d: %v", wk, ss, err)
			}
			drive(t, e, steps)
			if fp := sim.FingerprintConfig(e.Current()); fp != wantFP {
				t.Fatalf("workers=%d shard=%d: fingerprint %016x, want %016x", wk, ss, fp, wantFP)
			}
			if e.Steps() != ref.steps || e.Moves() != ref.moves || e.Rounds() != ref.rounds {
				t.Fatalf("workers=%d shard=%d: counters diverge: steps %d/%d moves %d/%d rounds %d/%d",
					wk, ss, e.Steps(), ref.steps, e.Moves(), ref.moves, e.Rounds(), ref.rounds)
			}
			if guardEvals < 0 {
				guardEvals = e.GuardEvals()
			} else if e.GuardEvals() != guardEvals {
				t.Fatalf("workers=%d shard=%d: guard accounting diverges across worker counts: %d vs %d",
					wk, ss, e.GuardEvals(), guardEvals)
			}
			e.Close()
		}
	}
}

// TestFusedSyncWorkerShardInvariance: the fused synchronous path (dense
// firing fronts on the packed buffer) must be bitwise invariant across the
// whole worker×shard grid. The odd ring size keeps the firing fronts
// partial on some steps and full on others, covering both fused variants.
func TestFusedSyncWorkerShardInvariance(t *testing.T) {
	t.Parallel()
	p := unisonRing(t, 257)
	for seed := int64(1); seed <= 3; seed++ {
		invarianceCheck(t, p, func() sim.Daemon[int] { return daemon.NewSynchronous[int]() }, seed, 60)
	}
}

// TestDistributedWorkerShardInvariance: non-aliased dense-ish random
// selections take the general sharded path; same invariance grid.
func TestDistributedWorkerShardInvariance(t *testing.T) {
	t.Parallel()
	p := unisonRing(t, 129)
	for seed := int64(1); seed <= 3; seed++ {
		invarianceCheck(t, p, func() sim.Daemon[int] { return daemon.NewDistributed[int](0.5) }, seed, 60)
	}
}

// TestSparseSyncWorkerShardInvariance: dijkstra's ring keeps at most a few
// vertices enabled, so sd stays below the fused gate's density threshold —
// the incremental dirty-set path must survive the same grid unchanged.
func TestSparseSyncWorkerShardInvariance(t *testing.T) {
	t.Parallel()
	p := dijkstra.MustNew(33, 33)
	for seed := int64(1); seed <= 3; seed++ {
		invarianceCheck(t, p, func() sim.Daemon[int] { return daemon.NewSynchronous[int]() }, seed, 120)
	}
}

// TestPoolReuseAcrossSetConfig: SetConfig re-encodes and refreshes through
// the pool's barrier mid-execution; the same engine (and pool) must then
// keep replaying the sequential reference exactly — start/reuse of the
// barrier across fault injection, under the race detector in CI.
func TestPoolReuseAcrossSetConfig(t *testing.T) {
	t.Parallel()
	p := unisonRing(t, 64)
	rng := rand.New(rand.NewSource(7))
	initial := sim.RandomConfig(p, rng)
	inject := sim.RandomConfig(p, rng)

	ref, err := sim.NewEngineWith(p, daemon.NewSynchronous[int](), initial, 7, sim.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := sim.NewEngineWith(p, daemon.NewSynchronous[int](), initial, 7, sim.Options{Workers: 4, ShardSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer par.Close()

	for phase := 0; phase < 3; phase++ {
		drive(t, ref, 15)
		drive(t, par, 15)
		if got, want := sim.FingerprintConfig(par.Current()), sim.FingerprintConfig(ref.Current()); got != want {
			t.Fatalf("phase %d: fingerprint %016x, want %016x", phase, got, want)
		}
		if err := ref.SetConfig(inject); err != nil {
			t.Fatal(err)
		}
		if err := par.SetConfig(inject); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSharedPoolAcrossEngines: several engines on one explicit Pool —
// the campaign sweep topology — interleaved step by step, each replaying
// its solo sequential run; closing the shared pool mid-flight degrades to
// inline execution without changing anything.
func TestSharedPoolAcrossEngines(t *testing.T) {
	t.Parallel()
	pool := sim.NewPool(4)
	defer pool.Close()
	p := unisonRing(t, 96)

	const engines, steps = 3, 30
	var shared, solo []*sim.Engine[int]
	for i := 0; i < engines; i++ {
		seed := int64(i + 1)
		rng := rand.New(rand.NewSource(seed))
		initial := sim.RandomConfig(p, rng)
		s, err := sim.NewEngineWith(p, daemon.NewSynchronous[int](), initial, seed,
			sim.Options{Workers: 4, ShardSize: 1, Pool: pool})
		if err != nil {
			t.Fatal(err)
		}
		r, err := sim.NewEngineWith(p, daemon.NewSynchronous[int](), initial, seed, sim.Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		shared, solo = append(shared, s), append(solo, r)
	}
	for step := 0; step < steps; step++ {
		if step == steps/2 {
			pool.Close() // the rest of the execution runs inline
		}
		for i := range shared {
			drive(t, shared[i], 1)
			drive(t, solo[i], 1)
		}
	}
	for i := range shared {
		if got, want := sim.FingerprintConfig(shared[i].Current()), sim.FingerprintConfig(solo[i].Current()); got != want {
			t.Fatalf("engine %d: fingerprint %016x, want %016x", i, got, want)
		}
	}
}

// TestEngineCloseInlineFallback: Close mid-execution is allowed, is
// idempotent, and later steps run inline with unchanged results.
func TestEngineCloseInlineFallback(t *testing.T) {
	t.Parallel()
	p := unisonRing(t, 80)
	rng := rand.New(rand.NewSource(5))
	initial := sim.RandomConfig(p, rng)

	ref, err := sim.NewEngineWith(p, daemon.NewSynchronous[int](), initial, 5, sim.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	e, err := sim.NewEngineWith(p, daemon.NewSynchronous[int](), initial, 5, sim.Options{Workers: 4, ShardSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	drive(t, ref, 40)
	drive(t, e, 20)
	e.Close()
	e.Close() // idempotent
	drive(t, e, 20)
	if got, want := sim.FingerprintConfig(e.Current()), sim.FingerprintConfig(ref.Current()); got != want {
		t.Fatalf("post-Close execution diverged: %016x vs %016x", got, want)
	}
}

// TestEnginePoolOnlyWhenSharded: an engine creates a private pool only
// when its vertex count exceeds one shard — no phase covers more than n
// vertices, so a smaller engine would never use one — and the execution
// is the same with or without it.
func TestEnginePoolOnlyWhenSharded(t *testing.T) {
	t.Parallel()
	p := unisonRing(t, 80)
	initial := sim.RandomConfig(p, rand.New(rand.NewSource(5)))
	ref, err := sim.NewEngineWith(p, daemon.NewSynchronous[int](), initial, 5, sim.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	drive(t, ref, 40)
	for _, c := range []struct {
		shardSize int
		wantPool  bool
	}{{80, false}, {0, false}, {79, true}, {1, true}} {
		e, err := sim.NewEngineWith(p, daemon.NewSynchronous[int](), initial, 5, sim.Options{Workers: 4, ShardSize: c.shardSize})
		if err != nil {
			t.Fatal(err)
		}
		if e.HasPool() != c.wantPool {
			t.Errorf("shard size %d: has pool %v, want %v", c.shardSize, e.HasPool(), c.wantPool)
		}
		drive(t, e, 40)
		if got, want := sim.FingerprintConfig(e.Current()), sim.FingerprintConfig(ref.Current()); got != want {
			t.Errorf("shard size %d: execution diverged: %016x vs %016x", c.shardSize, got, want)
		}
		e.Close()
	}
}

// TestOptionsValidation pins the constructor's rejection of negative
// parallelism parameters and the Workers-from-Pool default.
func TestOptionsValidation(t *testing.T) {
	t.Parallel()
	p := unisonRing(t, 8)
	rng := rand.New(rand.NewSource(1))
	initial := sim.RandomConfig(p, rng)
	d := daemon.NewSynchronous[int]()

	if _, err := sim.NewEngineWith(p, d, initial, 1, sim.Options{Workers: -1}); err == nil || !strings.Contains(err.Error(), "Workers") {
		t.Fatalf("negative Workers: got %v, want an Options.Workers error", err)
	}
	if _, err := sim.NewEngineWith(p, d, initial, 1, sim.Options{ShardSize: -3}); err == nil || !strings.Contains(err.Error(), "ShardSize") {
		t.Fatalf("negative ShardSize: got %v, want an Options.ShardSize error", err)
	}

	pool := sim.NewPool(3)
	defer pool.Close()
	e, err := sim.NewEngineWith(p, d, initial, 1, sim.Options{Pool: pool})
	if err != nil {
		t.Fatal(err)
	}
	if e.Workers() != 3 {
		t.Fatalf("Workers defaulted to %d, want the pool width 3", e.Workers())
	}
}

package sim_test

import (
	"fmt"
	"math/rand"
	"testing"

	"specstab/internal/core"
	"specstab/internal/daemon"
	"specstab/internal/dijkstra"
	"specstab/internal/graph"
	"specstab/internal/sim"
)

// TestFusedStepZeroAlloc pins the zero-allocation contract of the dense
// synchronous step (DESIGN.md §11): in the steady state of a unison ring
// under sd — every vertex fires NA every step, the full-firing fused path
// — a step and the Current() read that decodes its stale shadow allocate
// nothing, sequentially and on the shard pool. The ring spans two default
// shards, so Workers 2 runs both epochs of the step on the pool. The
// daemon declares sim.FiresAll, so the engine must never call its Select.
// Unison declares NA uniform, so its steps are speculated and evaluate no
// guard; the same ring behind noUniform evaluates all n guards a step.
func TestFusedStepZeroAlloc(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector allocates on its own")
	}
	n := 2 * sim.DefaultShardSize
	uni := unisonRing(t, n)
	for _, tc := range []struct {
		name  string
		p     sim.Protocol[int]
		evals int64 // guard evaluations per step
	}{
		{"speculated", uni, 0},
		{"guard-pass", noUniform{uni}, int64(n)},
	} {
		for _, workers := range []int{1, 2} {
			d := &countingSync{}
			e, err := sim.NewEngineWith[int](tc.p, d, make(sim.Config[int], n), 1, sim.Options{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			drive(t, e, 4) // size the scratch buffers and start the pool
			if moves := e.Moves(); moves != 4*n {
				t.Fatalf("%s/workers=%d: %d moves in 4 steps, want %d (not the full-firing steady state)", tc.name, workers, moves, 4*n)
			}
			evals := e.GuardEvals()
			const runs = 100
			allocs := testing.AllocsPerRun(runs, func() {
				if _, err := e.Step(); err != nil {
					t.Fatal(err)
				}
				if c := e.Current(); len(c) != n {
					t.Fatalf("%s/workers=%d: Current has %d states, want %d", tc.name, workers, len(c), n)
				}
			})
			if allocs != 0 {
				t.Errorf("%s/workers=%d: %.2f allocs per steady-state step and read, want 0", tc.name, workers, allocs)
			}
			// AllocsPerRun makes one warm-up run besides the counted ones.
			if got := (e.GuardEvals() - evals) / (runs + 1); got != tc.evals {
				t.Errorf("%s/workers=%d: %d guard evaluations per step, want %d", tc.name, workers, got, tc.evals)
			}
			if d.selects != 0 {
				t.Errorf("%s/workers=%d: Select called %d times on a daemon declaring sim.FiresAll", tc.name, workers, d.selects)
			}
			e.Close()
		}
	}
}

// noUniform hides a protocol's Uniform declaration and forwards its
// other capabilities, so its full-firing sd steps run the guard pass.
type noUniform struct{ sim.Protocol[int] }

func (o noUniform) Flat() (sim.Flat[int], bool) {
	f := sim.FlatOf(o.Protocol)
	return f, f != nil
}
func (o noUniform) Local() (sim.Local, bool) {
	l := sim.LocalOf(o.Protocol)
	return l, l != nil
}
func (o noUniform) MaxRule() sim.Rule {
	r, _ := sim.MaxRuleOf(o.Protocol)
	return r
}

// TestFusedPartialStepZeroAlloc covers the other fused variant: from a
// random start, sd on the odd unison 257-ring fires a dense but partial
// front (about 150 to 200 vertices) for hundreds of steps, and the front
// grows a vertex every few steps. Such a step allocates nothing once warm,
// and the staging buffer that follows the growing front is not
// reallocated at every new maximum. At Workers 2 with ShardSize 1 both
// epochs run on the pool.
func TestFusedPartialStepZeroAlloc(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector allocates on its own")
	}
	const n = 257
	p := unisonRing(t, n)
	initial := sim.RandomConfig(p, rand.New(rand.NewSource(1)))
	for _, opts := range []sim.Options{{Workers: 1}, {Workers: 2, ShardSize: 1}} {
		e, err := sim.NewEngineWith(p, daemon.NewSynchronous[int](), initial, 1, opts)
		if err != nil {
			t.Fatal(err)
		}
		drive(t, e, 10)
		notPartial := 0
		// One run of 100 steps after a warm-up run of 100: the count is
		// the exact total, so a reallocation at any step shows.
		allocs := testing.AllocsPerRun(1, func() {
			for range 100 {
				k := len(e.Enabled())
				if _, err := e.Step(); err != nil {
					t.Fatal(err)
				}
				if k == n || 4*k < n {
					notPartial++
				}
			}
		})
		if notPartial != 0 {
			t.Fatalf("workers=%d: %d measured steps were not partial fused steps", opts.Workers, notPartial)
		}
		if allocs != 0 {
			t.Errorf("workers=%d: %.0f allocs in 100 warm partial steps, want 0", opts.Workers, allocs)
		}
		e.Close()
	}
}

// TestGeneralStepZeroAlloc extends the contract to the general step, the
// path of every daemon that is asked to Select and of sparse sd fronts: a
// warm Step allocates nothing. Dijkstra's legitimate 64-ring passes one
// token (one selected vertex, a two-vertex dirty set), so sd stays on the
// general path there; the unison 64-ring keeps a wide front, so the
// distributed daemon selects dozens of vertices and the central daemons
// dirty three per step. At Workers 2 with ShardSize 1 the dirty refresh
// and, on the wide selections, the evaluate and commit phases run on the
// pool. Each case also runs on a full-rescan engine (DisableIncremental),
// whose Step rebuilds the enabled list with sharded guard sweeps. The
// first Select builds the engine's generator and the first draw seeds it;
// the warm-up pays for both and for growing the scratch buffers to the
// widest selection. A last case checks that steps which insert into and
// delete from the enabled list allocate nothing either.
func TestGeneralStepZeroAlloc(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector allocates on its own")
	}
	const n = 64
	protocols := []struct {
		name string
		p    sim.Protocol[int]
	}{
		{"dijkstra", dijkstra.MustNew(n, n)},
		{"unison", unisonRing(t, n)},
	}
	daemons := []struct {
		name string
		mk   func() sim.Daemon[int]
	}{
		{"sd", func() sim.Daemon[int] { return daemon.NewSynchronous[int]() }},
		{"random-central", func() sim.Daemon[int] { return daemon.NewRandomCentral[int]() }},
		{"round-robin", func() sim.Daemon[int] { return daemon.NewRoundRobin[int](n) }},
		{"distributed", func() sim.Daemon[int] { return daemon.NewDistributed[int](0.5) }},
	}
	for _, pc := range protocols {
		for _, dc := range daemons {
			for _, opts := range []sim.Options{{Workers: 1}, {Workers: 2, ShardSize: 1}} {
				for _, incremental := range []bool{true, false} {
					sd := dc.name == "sd" && incremental
					if sd && pc.name == "unison" {
						continue // the fused step: TestFusedStepZeroAlloc
					}
					name := fmt.Sprintf("%s/%s/workers=%d/incremental=%v", pc.name, dc.name, opts.Workers, incremental)
					e, err := sim.NewEngineWith(pc.p, dc.mk(), make(sim.Config[int], n), 1, opts)
					if err != nil {
						t.Fatal(err)
					}
					if !incremental {
						e.DisableIncremental()
					}
					measureWarmStep(t, name, e, sd)
					e.Close()
				}
			}
		}
	}
	measurePatchingSteps(t)
}

// measurePatchingSteps covers the in-place patching of the enabled list:
// a central daemon on a unison 64-ring moves one clock per step, so the
// mover leaves the enabled list and a neighbour it unblocked joins it.
// The measured steps must both insert and delete, starting from the
// all-enabled identity list, and allocate nothing.
func measurePatchingSteps(t *testing.T) {
	t.Helper()
	const n = 64
	p := unisonRing(t, n)
	for _, opts := range []sim.Options{{Workers: 1}, {Workers: 2, ShardSize: 1}} {
		e, err := sim.NewEngineWith(p, daemon.NewRandomCentral[int](), make(sim.Config[int], n), 1, opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(e.Enabled()) != n {
			t.Fatalf("workers=%d: %d of %d vertices enabled at the uniform start", opts.Workers, len(e.Enabled()), n)
		}
		drive(t, e, 1) // builds the generator and seeds it
		prev := make([]int, 0, n)
		var ins, del int
		allocs := testing.AllocsPerRun(200, func() {
			prev = append(prev[:0], e.Enabled()...)
			if _, err := e.Step(); err != nil {
				t.Fatal(err)
			}
			i, d := listDiff(prev, e.Enabled())
			ins += i
			del += d
		})
		if ins == 0 || del == 0 {
			t.Fatalf("workers=%d: the measured steps inserted %d and deleted %d vertices; want both", opts.Workers, ins, del)
		}
		if allocs != 0 {
			t.Errorf("workers=%d: %.2f allocs per step patching the enabled list, want 0", opts.Workers, allocs)
		}
		e.Close()
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

// measureWarmStep warms e up and fails t unless a further Step allocates
// nothing. sparse asserts that an incremental sd engine's front stays off
// the fused path.
func measureWarmStep(t *testing.T, name string, e *sim.Engine[int], sparse bool) {
	t.Helper()
	n := e.Protocol().N()
	drive(t, e, 200)
	if sparse && 4*len(e.Enabled()) >= n {
		t.Fatalf("%s: %d of %d vertices enabled, not a sparse front", name, len(e.Enabled()), n)
	}
	steps := e.Steps()
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := e.Step(); err != nil {
			t.Fatal(err)
		}
	})
	if e.Steps() == steps {
		t.Fatalf("%s: no step taken while measuring", name)
	}
	if allocs != 0 {
		t.Errorf("%s: %.2f allocs per warm step, want 0", name, allocs)
	}
}

// TestNewEngineAllocs bounds the allocations of engine construction, the
// per-task cost of the experiment grids, which build a fresh small engine
// for every cell×trial: SSME on an 8-ring under random-central. The
// influence sets are two arrays (CSR) rather than one slice per vertex,
// the daemon's generator is neither built nor seeded before the first
// Select, a multi-worker engine this small gets no private pool, and no
// shard body is bound as a method value (forShards switches on a phase;
// the pool job is bound only for an engine with a pool).
func TestNewEngineAllocs(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector allocates on its own")
	}
	const bound = 15
	p := core.MustNew(graph.Ring(8))
	initial := make(sim.Config[int], p.N())
	for _, workers := range []int{1, 4} {
		allocs := testing.AllocsPerRun(100, func() {
			e, err := sim.NewEngineWith[int](p, daemon.NewRandomCentral[int](), initial, 1, sim.Options{Workers: workers})
			if err != nil || !e.Incremental() {
				t.Fatalf("engine: %v (incremental %v)", err, err == nil && e.Incremental())
			}
		})
		t.Logf("workers=%d: NewEngineWith: %.0f allocs", workers, allocs)
		if allocs > bound {
			t.Errorf("workers=%d: NewEngineWith: %.0f allocs, want ≤ %d", workers, allocs, bound)
		}
	}
}

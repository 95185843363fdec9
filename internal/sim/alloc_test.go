package sim_test

import (
	"testing"

	"specstab/internal/sim"
)

// TestFusedStepZeroAlloc pins the zero-allocation contract of the dense
// synchronous step (DESIGN.md §11): in the steady state of a unison ring
// under sd — every vertex fires NA every step, the full-firing fused path
// — a step and the Current() read that decodes its stale shadow allocate
// nothing, sequentially and on the shard pool. The ring spans two default
// shards, so Workers 2 runs both epochs of the step on the pool. The
// daemon declares sim.FiresAll, so the engine must never call its Select.
func TestFusedStepZeroAlloc(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector allocates on its own")
	}
	n := 2 * sim.DefaultShardSize
	p := unisonRing(t, n)
	for _, workers := range []int{1, 2} {
		d := &countingSync{}
		e, err := sim.NewEngineWith[int](p, d, make(sim.Config[int], n), 1, sim.Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		drive(t, e, 4) // size the scratch buffers and start the pool
		if moves := e.Moves(); moves != 4*n {
			t.Fatalf("workers=%d: %d moves in 4 steps, want %d (not the full-firing steady state)", workers, moves, 4*n)
		}
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := e.Step(); err != nil {
				t.Fatal(err)
			}
			if c := e.Current(); len(c) != n {
				t.Fatalf("workers=%d: Current has %d states, want %d", workers, len(c), n)
			}
		})
		if allocs != 0 {
			t.Errorf("workers=%d: %.2f allocs per steady-state step and read, want 0", workers, allocs)
		}
		if d.selects != 0 {
			t.Errorf("workers=%d: Select called %d times on a daemon declaring sim.FiresAll", workers, d.selects)
		}
		e.Close()
	}
}

package sim_test

import (
	"slices"
	"testing"

	"specstab/internal/daemon"
	"specstab/internal/dijkstra"
	"specstab/internal/sim"
)

// newHookEngine builds a small dijkstra engine for hook-pipeline tests.
func newHookEngine(t *testing.T) *sim.Engine[int] {
	t.Helper()
	p := dijkstra.MustNew(6, 6)
	e, err := sim.NewEngine[int](p, daemon.NewSynchronous[int](), p.WorstConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestAddHookFanOut(t *testing.T) {
	t.Parallel()
	e := newHookEngine(t)
	var a, b int
	e.AddHook(func(sim.StepInfo) { a++ })
	idB := e.AddHook(func(sim.StepInfo) { b++ })
	for i := 0; i < 5; i++ {
		if _, err := e.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if a != 5 || b != 5 {
		t.Fatalf("hook counts a=%d b=%d, want 5 each", a, b)
	}
	if !e.RemoveHook(idB) {
		t.Fatal("RemoveHook did not find the registered hook")
	}
	if e.RemoveHook(idB) {
		t.Fatal("RemoveHook found an already-removed hook")
	}
	if _, err := e.Step(); err != nil {
		t.Fatal(err)
	}
	if a != 6 || b != 5 {
		t.Fatalf("after removal a=%d b=%d, want 6 and 5", a, b)
	}
}

func TestAddHookOrder(t *testing.T) {
	t.Parallel()
	e := newHookEngine(t)
	var order []string
	e.AddHook(func(sim.StepInfo) { order = append(order, "first") })
	e.AddHook(func(sim.StepInfo) { order = append(order, "second") })
	if _, err := e.Step(); err != nil {
		t.Fatal(err)
	}
	want := []string{"first", "second"}
	if len(order) != len(want) {
		t.Fatalf("order %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order %v, want %v", order, want)
		}
	}
}

func TestRemoveHookDuringInvocation(t *testing.T) {
	t.Parallel()
	e := newHookEngine(t)
	var a, b int
	var idA sim.HookID
	idA = e.AddHook(func(sim.StepInfo) {
		a++
		e.RemoveHook(idA) // self-removal mid-step must not skip the next hook
	})
	e.AddHook(func(sim.StepInfo) { b++ })
	for i := 0; i < 3; i++ {
		if _, err := e.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if a != 1 || b != 3 {
		t.Fatalf("a=%d b=%d, want 1 and 3", a, b)
	}
}

func TestStepInfoClone(t *testing.T) {
	t.Parallel()
	e := newHookEngine(t)
	var retained []sim.StepInfo
	e.AddHook(func(info sim.StepInfo) {
		retained = append(retained, info.Clone())
	})
	for i := 0; i < 4; i++ {
		if _, err := e.Step(); err != nil {
			t.Fatal(err)
		}
	}
	for i, info := range retained {
		if info.Step != i+1 {
			t.Fatalf("cloned info %d has Step %d, want %d", i, info.Step, i+1)
		}
		if len(info.Activated) == 0 || len(info.Rules) != len(info.Activated) {
			t.Fatalf("cloned info %d has inconsistent slices: %+v", i, info)
		}
	}
	// Clones must be independent of the engine's scratch buffers: mutating
	// one retained record cannot affect another.
	retained[0].Activated[0] = -1
	if retained[1].Activated[0] == -1 {
		t.Fatal("clones alias the same backing array")
	}

	// On a legitimate 16-ring one token moves per step, so every refresh is
	// sparse and the info carries its dirty set: the token's holder and its
	// successor, which reads it.
	const n = 16
	sparse := sim.MustEngine[int](dijkstra.MustNew(n, n), daemon.NewSynchronous[int](), make(sim.Config[int], n), 1)
	var live [][]int
	retained = retained[:0]
	sparse.AddHook(func(info sim.StepInfo) {
		live = append(live, info.Dirty)
		retained = append(retained, info.Clone())
	})
	for i := 0; i < 4; i++ {
		if _, err := sparse.Step(); err != nil {
			t.Fatal(err)
		}
	}
	for i, info := range retained {
		v := info.Activated[0]
		want := []int{v, (v + 1) % n}
		if got := slices.Sorted(slices.Values(info.Dirty)); !slices.Equal(got, want) {
			t.Fatalf("cloned info %d: dirty %v, want %v", i, info.Dirty, want)
		}
		if &info.Dirty[0] == &live[i][0] {
			t.Fatalf("cloned info %d shares the engine's dirty buffer", i)
		}
	}
}

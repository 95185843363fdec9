package sim_test

// Engine.SetConfig is the live fault-injection hook (internal/service
// corrupts registers mid-execution through it). These tests pin its
// contract: the injected configuration becomes the live one exactly, the
// maintained enabled set matches a from-scratch recomputation, and the
// continuation of the execution matches the reference stepper for every
// worker count — SetConfig must not introduce any representation- or
// timing-dependent divergence.

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

// setConfigLockstep runs an engine with opts and the reference stepper
// in lockstep: steps₁ transitions, inject the same configuration into
// both, steps₂ transitions.
func setConfigLockstep[S comparable](t *testing.T, name string, p sim.Protocol[S], opts sim.Options, rescan bool, initial, inject sim.Config[S], steps1, steps2 int) {
	t.Helper()
	e, err := sim.NewEngineWith(p, daemon.NewDistributed[S](0.5), initial, 7, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if rescan {
		e.DisableIncremental()
	}
	ref := newRefStepper(p, daemon.NewDistributed[S](0.5), initial, 7)
	lockstep(t, name, e, ref, steps1)
	if err := e.SetConfig(inject); err != nil {
		t.Fatal(err)
	}
	ref.setConfig(inject)
	// The injected configuration must be live immediately…
	if !e.Current().Equal(inject) {
		t.Fatalf("%s: current configuration is not the injected one", name)
	}
	// …and the maintained enabled set must match a fresh recomputation.
	want := sim.Enabled(p, e.Current(), nil)
	if fmt.Sprint(e.Enabled()) != fmt.Sprint(want) {
		t.Fatalf("%s: enabled set %v, want %v", name, e.Enabled(), want)
	}
	lockstep(t, name, e, ref, steps2)
}

// TestSetConfigBackendsAgree: after a mid-run injection every worker
// variant, incremental and full-rescan, must keep replaying the reference
// stepper's continuation bit for bit.
func TestSetConfigBackendsAgree(t *testing.T) {
	t.Parallel()
	ring := graph.Ring(9)
	p := core.MustNew(ring)
	rng := rand.New(rand.NewSource(3))
	initial := sim.RandomConfig[int](p, rng)
	inject := sim.Corrupt[int](p, initial, 5, rng)
	for _, v := range engineMatrix() {
		setConfigLockstep[int](t, v.name, p, v.opts, v.rescan, initial, inject, 25, 60)
	}
}

// TestSetConfigMatchesFreshEngine: after injection, the engine's
// *synchronous* continuation (sd is deterministic, so daemon rng state
// cannot differ) must coincide step for step with a brand-new engine
// started from the injected configuration.
func TestSetConfigMatchesFreshEngine(t *testing.T) {
	t.Parallel()
	p := dijkstra.MustNew(8, 8)
	rng := rand.New(rand.NewSource(5))
	initial := sim.RandomConfig[int](p, rng)
	inject := sim.Corrupt[int](p, initial, 8, rng)

	live := sim.MustEngine[int](p, daemon.NewSynchronous[int](), initial, 1)
	if _, err := live.Run(10, nil); err != nil {
		t.Fatal(err)
	}
	if err := live.SetConfig(inject); err != nil {
		t.Fatal(err)
	}
	fresh := sim.MustEngine[int](p, daemon.NewSynchronous[int](), inject, 1)
	for s := 0; s < 40; s++ {
		pl, errL := live.Step()
		pf, errF := fresh.Step()
		if errL != nil || errF != nil {
			t.Fatalf("step %d: errors %v / %v", s, errL, errF)
		}
		if pl != pf {
			t.Fatalf("step %d: progress diverges (%v vs %v)", s, pl, pf)
		}
		if !live.Current().Equal(fresh.Current()) {
			t.Fatalf("step %d: configurations diverge after SetConfig", s)
		}
		if !pl {
			break
		}
	}
}

// TestSetConfigRejectsWrongLength: validation must refuse mis-sized
// configurations and leave the engine untouched.
func TestSetConfigRejectsWrongLength(t *testing.T) {
	t.Parallel()
	p := dijkstra.MustNew(6, 6)
	e := sim.MustEngine[int](p, daemon.NewSynchronous[int](), make(sim.Config[int], 6), 1)
	before := e.Snapshot()
	if err := e.SetConfig(make(sim.Config[int], 5)); err == nil {
		t.Fatal("want error for mis-sized configuration")
	}
	if !e.Current().Equal(before) {
		t.Fatal("failed SetConfig must not modify the configuration")
	}
}

func TestCorruptRespectsDomainAndCount(t *testing.T) {
	t.Parallel()
	g := graph.Ring(9)
	p := core.MustNew(g)
	base, err := p.UniformConfig(0)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for _, k := range []int{0, 1, 4, 9, 100} {
		got := sim.Corrupt[int](p, base, k, rng)
		if len(got) != g.N() {
			t.Fatalf("k=%d: wrong length", k)
		}
		changed := 0
		for v := range got {
			if err := p.Clock().Validate(got[v]); err != nil {
				t.Fatalf("k=%d: corrupted value out of domain: %v", k, err)
			}
			if got[v] != base[v] {
				changed++
			}
		}
		max := k
		if max > g.N() {
			max = g.N()
		}
		if changed > max {
			t.Errorf("k=%d: %d registers changed, more than corrupted", k, changed)
		}
		// The original must be untouched.
		for v := range base {
			if base[v] != 0 {
				t.Fatal("Corrupt mutated its input")
			}
		}
	}
}

func TestCorruptDeterministicForSeed(t *testing.T) {
	t.Parallel()
	g := graph.Ring(8)
	p := core.MustNew(g)
	base, err := p.UniformConfig(3)
	if err != nil {
		t.Fatal(err)
	}
	a := sim.Corrupt[int](p, base, 4, rand.New(rand.NewSource(9)))
	b := sim.Corrupt[int](p, base, 4, rand.New(rand.NewSource(9)))
	if !a.Equal(b) {
		t.Error("same seed must corrupt identically")
	}
}

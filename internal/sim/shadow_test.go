package sim_test

// The engine's decoded Config[S] is a shadow of the packed state brought
// up to date on read: the dense synchronous step only marks it stale.
// These tests take steps nobody observes and then read the configuration
// through every reader the engine offers, against the reference stepper.

import (
	"math/rand"
	"testing"

	"specstab/internal/bfstree"
	"specstab/internal/daemon"
	"specstab/internal/dijkstra"
	"specstab/internal/graph"
	"specstab/internal/sim"
)

// countingSync is sd with a Select counter. It declares sim.FiresAll, so
// the engine must never call Select.
type countingSync struct{ selects int }

func (*countingSync) Name() string { return "sd/counting" }
func (d *countingSync) Select(_ sim.Config[int], enabled []int, _ *rand.Rand, dst []int) []int {
	d.selects++
	return append(dst, enabled...)
}
func (*countingSync) FiresAllEnabled() bool { return true }

// configReader fires the whole enabled list like sd but does not declare
// sim.FiresAll, and keeps a copy of the configuration Select was shown.
type configReader struct{ seen sim.Config[int] }

func (*configReader) Name() string { return "sd/config-reading" }
func (d *configReader) Select(c sim.Config[int], enabled []int, _ *rand.Rand, dst []int) []int {
	d.seen = append(d.seen[:0], c...)
	return append(dst, enabled...)
}

// shadowOptions are the engine variants of the shadow tests: sequential,
// and sharded on the pool.
var shadowOptions = []sim.Options{{Workers: 1}, {Workers: 4, ShardSize: 2}}

// TestShadowDecodeOnRead: after unread sd steps, Current, Snapshot,
// Run's until, RunToFixpoint, FingerprintConfig(Current()) and SetConfig
// all see the reference configuration, and the execution goes on matching
// the reference. The unison ring fires densely (the fused step), the
// dijkstra ring sparsely (the general path), and bfstree reaches a
// fixpoint.
func TestShadowDecodeOnRead(t *testing.T) {
	t.Parallel()
	grid := graph.Grid(6, 6)
	protocols := []struct {
		name string
		p    sim.Protocol[int]
	}{
		{"unison-64", unisonRing(t, 64)},
		{"dijkstra-33", dijkstra.MustNew(33, 33)},
		{"bfstree-grid", bfstree.MustNew(grid, 0)},
	}
	readers := []struct {
		name  string
		check func(t *testing.T, p sim.Protocol[int], e *sim.Engine[int], ref *refStepper[int])
	}{
		{"Current", func(t *testing.T, _ sim.Protocol[int], e *sim.Engine[int], ref *refStepper[int]) {
			if !e.Current().Equal(ref.cfg) {
				t.Fatalf("Current %v, reference %v", e.Current(), ref.cfg)
			}
		}},
		{"Snapshot", func(t *testing.T, _ sim.Protocol[int], e *sim.Engine[int], ref *refStepper[int]) {
			if s := e.Snapshot(); !s.Equal(ref.cfg) {
				t.Fatalf("Snapshot %v, reference %v", s, ref.cfg)
			}
		}},
		{"Fingerprint", func(t *testing.T, _ sim.Protocol[int], e *sim.Engine[int], ref *refStepper[int]) {
			if got, want := sim.FingerprintConfig(e.Current()), sim.FingerprintConfig(ref.cfg); got != want {
				t.Fatalf("fingerprint %016x, reference %016x", got, want)
			}
		}},
		{"Run", func(t *testing.T, _ sim.Protocol[int], e *sim.Engine[int], ref *refStepper[int]) {
			calls := 0
			_, err := e.Run(10, func(c sim.Config[int]) bool {
				if !c.Equal(ref.cfg) {
					t.Errorf("until call %d: configuration %v, reference %v", calls, c, ref.cfg)
				}
				calls++
				if calls > 5 {
					return true
				}
				if _, _, err := ref.step(); err != nil {
					t.Error(err)
				}
				return false
			})
			if err != nil {
				t.Fatal(err)
			}
		}},
		{"RunToFixpoint", func(t *testing.T, p sim.Protocol[int], e *sim.Engine[int], ref *refStepper[int]) {
			// Budget exactly the steps to the fixpoint (sd is deterministic),
			// so RunToFixpoint ends on its read of the configuration.
			probe := newRefStepper(p, daemon.NewSynchronous[int](), ref.cfg, 0)
			steps := 1
			for ; steps < 40; steps++ {
				if _, _, err := probe.step(); err != nil {
					t.Fatal(err)
				}
				if sim.Terminal(p, probe.cfg) {
					break
				}
			}
			fix, err := sim.RunToFixpoint(e, steps)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < steps; i++ {
				if _, _, err := ref.step(); err != nil {
					t.Fatal(err)
				}
			}
			if want := sim.Terminal(p, ref.cfg); fix != want {
				t.Fatalf("RunToFixpoint(%d): fixpoint %v, reference %v", steps, fix, want)
			}
		}},
		{"SetConfig", func(t *testing.T, p sim.Protocol[int], e *sim.Engine[int], ref *refStepper[int]) {
			inject := sim.RandomConfig(p, rand.New(rand.NewSource(11)))
			if err := e.SetConfig(inject); err != nil {
				t.Fatal(err)
			}
			ref.setConfig(inject)
			if !e.Current().Equal(inject) {
				t.Fatalf("Current %v after SetConfig, want %v", e.Current(), inject)
			}
		}},
	}
	for _, pr := range protocols {
		initial := sim.RandomConfig(pr.p, rand.New(rand.NewSource(5)))
		for _, opts := range shadowOptions {
			for _, rd := range readers {
				name := pr.name + "/" + rd.name
				d := &countingSync{}
				e, err := sim.NewEngineWith[int](pr.p, d, initial, 5, opts)
				if err != nil {
					t.Fatal(err)
				}
				ref := newRefStepper(pr.p, daemon.NewSynchronous[int](), initial, 5)
				for i := 0; i < 6; i++ {
					if _, err := e.Step(); err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if _, _, err := ref.step(); err != nil {
						t.Fatalf("%s: %v", name, err)
					}
				}
				rd.check(t, pr.p, e, ref)
				lockstep(t, name, e, ref, 10)
				if d.selects != 0 {
					t.Fatalf("%s: Select called %d times on a daemon declaring sim.FiresAll", name, d.selects)
				}
				e.Close()
			}
		}
	}
}

// TestSelectSeesCurrentConfig: a daemon without sim.FiresAll that reads
// the configuration and fires the whole enabled list is shown the current
// configuration at every Select, and the execution matches sd's.
func TestSelectSeesCurrentConfig(t *testing.T) {
	t.Parallel()
	p := unisonRing(t, 64)
	initial := sim.RandomConfig(p, rand.New(rand.NewSource(3)))
	for _, opts := range shadowOptions {
		d := &configReader{}
		e, err := sim.NewEngineWith[int](p, d, initial, 3, opts)
		if err != nil {
			t.Fatal(err)
		}
		ref := newRefStepper(p, daemon.NewSynchronous[int](), initial, 3)
		for i := 1; i <= 30; i++ {
			want := ref.cfg.Clone()
			if _, err := e.Step(); err != nil {
				t.Fatal(err)
			}
			if _, _, err := ref.step(); err != nil {
				t.Fatal(err)
			}
			if !d.seen.Equal(want) {
				t.Fatalf("workers=%d step %d: Select saw %v, want %v", opts.Workers, i, d.seen, want)
			}
		}
		if !e.Current().Equal(ref.cfg) {
			t.Fatalf("workers=%d: configuration %v, reference %v", opts.Workers, e.Current(), ref.cfg)
		}
		e.Close()
	}
}

package daemon

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"specstab/internal/sim"
)

// toyProtocol: n vertices, binary states; a vertex is enabled when its
// state is 0, firing sets it to 1. Deterministic, order-free.
type toyProtocol struct{ n int }

const ruleSet sim.Rule = 1

func (p *toyProtocol) Name() string { return fmt.Sprintf("toy-%d", p.n) }
func (p *toyProtocol) N() int       { return p.n }
func (p *toyProtocol) EnabledRule(c sim.Config[int], v int) (sim.Rule, bool) {
	if c[v] == 0 {
		return ruleSet, true
	}
	return sim.NoRule, false
}
func (p *toyProtocol) Apply(sim.Config[int], int, sim.Rule) int { return 1 }
func (p *toyProtocol) RandomState(_ int, rng *rand.Rand) int    { return rng.Intn(2) }
func (p *toyProtocol) RuleName(sim.Rule) string                 { return "set" }

func enabledOf(c sim.Config[int]) []int {
	var out []int
	for v, s := range c {
		if s == 0 {
			out = append(out, v)
		}
	}
	return out
}

func TestSynchronousSelectsAll(t *testing.T) {
	t.Parallel()
	d := NewSynchronous[int]()
	c := sim.Config[int]{0, 1, 0, 0}
	got := d.Select(c, enabledOf(c), nil, nil)
	if len(got) != 3 {
		t.Fatalf("sd selected %v", got)
	}
	if d.Name() != "sd" {
		t.Errorf("name %q", d.Name())
	}
}

// TestCentralPoliciesPickExactlyOneEnabled property-checks every central
// policy: the selection is a single vertex drawn from the enabled set.
func TestCentralPoliciesPickExactlyOneEnabled(t *testing.T) {
	t.Parallel()
	p := &toyProtocol{n: 8}
	daemons := []sim.Daemon[int]{
		NewRandomCentral[int](),
		NewMinIDCentral[int](),
		NewMaxIDCentral[int](),
		NewRoundRobin[int](8),
		NewGreedyCentral[int](p, func(c sim.Config[int], v int) int64 { return int64(c[v]) }),
		NewRulePriorityCentral[int](p, map[sim.Rule]int{ruleSet: 0}),
	}
	rng := rand.New(rand.NewSource(1))
	cfg := &quick.Config{MaxCount: 300, Rand: rng}
	for _, d := range daemons {
		d := d
		prop := func(bits uint8) bool {
			c := make(sim.Config[int], 8)
			for v := range c {
				c[v] = int((bits >> v) & 1)
			}
			enabled := enabledOf(c)
			if len(enabled) == 0 {
				return true
			}
			sel := d.Select(c, enabled, rng, nil)
			if len(sel) != 1 {
				return false
			}
			for _, e := range enabled {
				if e == sel[0] {
					return true
				}
			}
			return false
		}
		if err := quick.Check(prop, cfg); err != nil {
			t.Errorf("%s: %v", d.Name(), err)
		}
	}
}

func TestMinMaxIDChoices(t *testing.T) {
	t.Parallel()
	c := sim.Config[int]{0, 1, 0, 0, 1}
	enabled := enabledOf(c) // {0, 2, 3}
	if got := NewMinIDCentral[int]().Select(c, enabled, nil, nil); got[0] != 0 {
		t.Errorf("min-id selected %v", got)
	}
	if got := NewMaxIDCentral[int]().Select(c, enabled, nil, nil); got[0] != 3 {
		t.Errorf("max-id selected %v", got)
	}
}

func TestRoundRobinIsFair(t *testing.T) {
	t.Parallel()
	d := NewRoundRobin[int](5)
	c := sim.Config[int]{0, 0, 0, 0, 0}
	enabled := []int{0, 1, 2, 3, 4}
	var order []int
	for i := 0; i < 10; i++ {
		order = append(order, d.Select(c, enabled, nil, nil)[0])
	}
	for i, v := range order {
		if v != i%5 {
			t.Fatalf("round robin order %v", order)
		}
	}
	// Skips disabled ids and wraps.
	d2 := NewRoundRobin[int](5)
	if got := d2.Select(c, []int{2, 4}, nil, nil)[0]; got != 2 {
		t.Errorf("first pick %d, want 2", got)
	}
	if got := d2.Select(c, []int{2, 4}, nil, nil)[0]; got != 4 {
		t.Errorf("second pick %d, want 4", got)
	}
	if got := d2.Select(c, []int{2, 4}, nil, nil)[0]; got != 2 {
		t.Errorf("wrap pick %d, want 2", got)
	}
}

func TestDistributedSelectsNonEmptySubset(t *testing.T) {
	t.Parallel()
	d := NewDistributed[int](0.3)
	rng := rand.New(rand.NewSource(2))
	c := sim.Config[int]{0, 0, 0, 0, 0, 0}
	enabled := enabledOf(c)
	for i := 0; i < 500; i++ {
		sel := d.Select(c, enabled, rng, nil)
		if len(sel) == 0 {
			t.Fatal("empty selection")
		}
		seen := map[int]bool{}
		for _, v := range sel {
			if v < 0 || v >= 6 || seen[v] {
				t.Fatalf("bad selection %v", sel)
			}
			seen[v] = true
		}
	}
}

func TestDistributedValidation(t *testing.T) {
	t.Parallel()
	for _, p := range []float64{0, -0.5, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("p=%v: expected panic", p)
				}
			}()
			NewDistributed[int](p)
		}()
	}
}

func TestGreedyCentralMaximizesPotential(t *testing.T) {
	t.Parallel()
	p := &toyProtocol{n: 4}
	// Potential that rewards setting vertex 2 specifically.
	potential := func(c sim.Config[int], v int) int64 {
		if v == 2 && c[2] == 1 {
			return 10
		}
		return 0
	}
	d := NewGreedyCentral[int](p, potential)
	c := sim.Config[int]{0, 0, 0, 0}
	if got := d.Select(c, enabledOf(c), nil, nil)[0]; got != 2 {
		t.Errorf("greedy selected %d, want 2", got)
	}
}

func TestLookaheadPrefersWorstSuccessor(t *testing.T) {
	t.Parallel()
	p := &toyProtocol{n: 4}
	potential := func(c sim.Config[int], v int) int64 {
		// Adversary wants vertex 0 set and vertex 3 unset.
		switch v {
		case 0:
			return int64(c[0] * 5)
		case 3:
			return int64(-c[3] * 3)
		}
		return 0
	}
	d := NewLookahead[int](p, potential, 4)
	rng := rand.New(rand.NewSource(3))
	c := sim.Config[int]{0, 1, 1, 0}
	sel := d.Select(c, enabledOf(c), rng, nil)
	if len(sel) != 1 || sel[0] != 0 {
		t.Errorf("lookahead selected %v, want [0]", sel)
	}
}

func TestLookaheadTieBreaksSmall(t *testing.T) {
	t.Parallel()
	p := &toyProtocol{n: 3}
	flat := func(sim.Config[int], int) int64 { return 0 }
	d := NewLookahead[int](p, flat, 2)
	rng := rand.New(rand.NewSource(4))
	c := sim.Config[int]{0, 0, 0}
	if sel := d.Select(c, enabledOf(c), rng, nil); len(sel) != 1 {
		t.Errorf("flat potential should yield a singleton (maximally unfair), got %v", sel)
	}
}

func TestNames(t *testing.T) {
	t.Parallel()
	p := &toyProtocol{n: 2}
	names := map[string]sim.Daemon[int]{
		"sd":                   NewSynchronous[int](),
		"cd/random":            NewRandomCentral[int](),
		"cd/min-id":            NewMinIDCentral[int](),
		"cd/max-id":            NewMaxIDCentral[int](),
		"cd/round-robin":       NewRoundRobin[int](2),
		"ud/distributed-p0.50": NewDistributed[int](0.5),
		"ud/greedy-lookahead":  NewLookahead[int](p, func(sim.Config[int], int) int64 { return 0 }, 1),
		"cd/greedy":            NewGreedyCentral[int](p, func(sim.Config[int], int) int64 { return 0 }),
		"cd/rule-priority":     NewRulePriorityCentral[int](p, nil),
	}
	for want, d := range names {
		if d.Name() != want {
			t.Errorf("name %q, want %q", d.Name(), want)
		}
	}
}

// TestSelectAppendsToDst pins the sim.Daemon buffer contract for every
// daemon: Select appends to dst, leaving its prefix intact, and chooses
// what it would have chosen into a nil dst from the same generator state.
// Stateful daemons get a fresh instance per call.
func TestSelectAppendsToDst(t *testing.T) {
	t.Parallel()
	p := &toyProtocol{n: 8}
	enabledTerm := func(c sim.Config[int], v int) int64 { return int64(1 - c[v]) }
	makers := []func() sim.Daemon[int]{
		func() sim.Daemon[int] { return NewSynchronous[int]() },
		func() sim.Daemon[int] { return NewRandomCentral[int]() },
		func() sim.Daemon[int] { return NewMaxIDCentral[int]() },
		func() sim.Daemon[int] { return NewRoundRobin[int](8) },
		func() sim.Daemon[int] { return NewDistributed[int](0.5) },
		func() sim.Daemon[int] { return NewLookahead[int](p, enabledTerm, 3) },
		func() sim.Daemon[int] { return NewGreedyCentral[int](p, enabledTerm) },
		func() sim.Daemon[int] { return NewRulePriorityCentral[int](p, map[sim.Rule]int{ruleSet: 0}) },
		func() sim.Daemon[int] { return NewRecorded[int]([][]int{{1, 5}}) },
	}
	c := sim.Config[int]{0, 0, 1, 0, 1, 0, 0, 1}
	enabled := enabledOf(c)
	for _, mk := range makers {
		want := mk().Select(c, enabled, rand.New(rand.NewSource(9)), nil)
		dst := append(make([]int, 0, 16), -1, -2)
		got := mk().Select(c, enabled, rand.New(rand.NewSource(9)), dst)
		name := mk().Name()
		if len(got) != 2+len(want) || got[0] != -1 || got[1] != -2 {
			t.Fatalf("%s: Select into [-1 -2] returned %v, want the prefix then %v", name, got, want)
		}
		if &got[0] != &dst[0] {
			t.Errorf("%s: Select did not append in place into a dst with spare capacity", name)
		}
		for i, v := range want {
			if got[2+i] != v {
				t.Fatalf("%s: Select into [-1 -2] chose %v, into nil %v", name, got[2:], want)
			}
		}
	}
}

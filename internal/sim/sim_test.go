package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// counterProtocol is a minimal test protocol on a ring of n vertices: each
// vertex holds a counter in [0, limit) and is enabled while below
// limit−1; firing increments. It is silent (terminal when all counters are
// maxed) and has no neighbor dependence, which makes engine bookkeeping
// easy to verify exactly.
type counterProtocol struct {
	IntWord
	n     int
	limit int
}

const ruleInc Rule = 1

func (p *counterProtocol) Name() string { return fmt.Sprintf("counter[n=%d,limit=%d]", p.n, p.limit) }
func (p *counterProtocol) N() int       { return p.n }

func (p *counterProtocol) EnabledRule(c Config[int], v int) (Rule, bool) {
	if c[v] < p.limit-1 {
		return ruleInc, true
	}
	return NoRule, false
}

func (p *counterProtocol) Apply(c Config[int], v int, r Rule) int {
	if r != ruleInc {
		panic("bad rule")
	}
	return c[v] + 1
}

func (p *counterProtocol) RandomState(_ int, rng *rand.Rand) int { return rng.Intn(p.limit) }
func (p *counterProtocol) RuleName(Rule) string                  { return "inc" }

func (p *counterProtocol) EnabledRuleFlat(st []int64, stride, base int, vs []int, rules []Rule) {
	for i, v := range vs {
		rules[i] = NoRule
		if st[v*stride+base] < int64(p.limit-1) {
			rules[i] = ruleInc
		}
	}
}

func (p *counterProtocol) ApplyFlat(st []int64, stride, base int, vs []int, _ []Rule, out []int64, outStride, outBase int) {
	for i, v := range vs {
		out[i*outStride+outBase] = st[v*stride+base] + 1
	}
}

var (
	_ Protocol[int] = (*counterProtocol)(nil)
	_ Flat[int]     = (*counterProtocol)(nil)
)

// noFlat hides every capability of the protocol it wraps.
type noFlat struct{ Protocol[int] }

func TestNewEngineRequiresFlat(t *testing.T) {
	t.Parallel()
	p := noFlat{&counterProtocol{n: 3, limit: 2}}
	_, err := NewEngine[int](p, allEnabled{}, Config[int]{0, 0, 0}, 1)
	if err == nil || !strings.Contains(err.Error(), p.Name()) || !strings.Contains(err.Error(), "Flat") {
		t.Fatalf("want an error naming %q and the Flat capability, got %v", p.Name(), err)
	}
}

// allEnabled is a synchronous daemon clone local to the tests (the real
// implementations live in internal/daemon; sim must not import it).
type allEnabled struct{}

func (allEnabled) Name() string { return "test-sync" }
func (allEnabled) Select(_ Config[int], e []int, _ *rand.Rand, dst []int) []int {
	return append(dst, e...)
}
func (allEnabled) FiresAllEnabled() bool { return true }

// firstOnly activates only the first enabled vertex.
type firstOnly struct{}

func (firstOnly) Name() string { return "test-central" }
func (firstOnly) Select(_ Config[int], e []int, _ *rand.Rand, dst []int) []int {
	return append(dst, e[0])
}

// broken returns an empty selection — a daemon contract violation.
type broken struct{}

func (broken) Name() string                                                 { return "test-broken" }
func (broken) Select(_ Config[int], _ []int, _ *rand.Rand, dst []int) []int { return dst }

func TestConfigCloneEqual(t *testing.T) {
	t.Parallel()
	c := Config[int]{1, 2, 3}
	d := c.Clone()
	if !c.Equal(d) {
		t.Fatal("clone not equal")
	}
	d[0] = 9
	if c.Equal(d) || c[0] == 9 {
		t.Fatal("clone aliases original")
	}
	if c.Equal(Config[int]{1, 2}) {
		t.Fatal("length mismatch compared equal")
	}
}

func TestEngineStepAndMoveAccounting(t *testing.T) {
	t.Parallel()
	p := &counterProtocol{n: 4, limit: 3}
	e := MustEngine[int](p, allEnabled{}, Config[int]{0, 0, 0, 0}, 1)
	// Synchronous: step 1 moves all 4 counters to 1, step 2 to 2, then
	// terminal.
	for i := 1; i <= 2; i++ {
		progressed, err := e.Step()
		if err != nil || !progressed {
			t.Fatalf("step %d: progressed=%v err=%v", i, progressed, err)
		}
	}
	if progressed, err := e.Step(); err != nil || progressed {
		t.Fatalf("expected terminal; progressed=%v err=%v", progressed, err)
	}
	if e.Steps() != 2 || e.Moves() != 8 {
		t.Errorf("steps=%d moves=%d, want 2 and 8", e.Steps(), e.Moves())
	}
	if !Terminal[int](p, e.Current()) {
		t.Error("terminal detection failed")
	}
}

func TestEngineHookSeesActivations(t *testing.T) {
	t.Parallel()
	p := &counterProtocol{n: 3, limit: 2}
	e := MustEngine[int](p, firstOnly{}, Config[int]{0, 0, 0}, 1)
	var activated []int
	e.AddHook(func(info StepInfo) {
		activated = append(activated, info.Activated...)
		if len(info.Rules) != len(info.Activated) {
			t.Error("rules/activated length mismatch")
		}
	})
	for {
		progressed, err := e.Step()
		if err != nil {
			t.Fatal(err)
		}
		if !progressed {
			break
		}
	}
	want := []int{0, 1, 2}
	if len(activated) != len(want) {
		t.Fatalf("activated %v, want %v", activated, want)
	}
	for i := range want {
		if activated[i] != want[i] {
			t.Fatalf("activated %v, want %v", activated, want)
		}
	}
}

func TestEngineRejectsBrokenDaemon(t *testing.T) {
	t.Parallel()
	p := &counterProtocol{n: 2, limit: 2}
	e := MustEngine[int](p, broken{}, Config[int]{0, 0}, 1)
	_, err := e.Step()
	if !errors.Is(err, ErrDaemonSelection) {
		t.Fatalf("want ErrDaemonSelection, got %v", err)
	}
}

func TestEngineValidatesConfigLength(t *testing.T) {
	t.Parallel()
	p := &counterProtocol{n: 3, limit: 2}
	if _, err := NewEngine[int](p, allEnabled{}, Config[int]{0}, 1); err == nil {
		t.Fatal("want validation error")
	}
}

func TestRunUntilPredicate(t *testing.T) {
	t.Parallel()
	p := &counterProtocol{n: 2, limit: 10}
	e := MustEngine[int](p, allEnabled{}, Config[int]{0, 0}, 1)
	steps, err := e.Run(100, func(c Config[int]) bool { return c[0] == 5 })
	if err != nil {
		t.Fatal(err)
	}
	if steps != 5 || e.Current()[0] != 5 {
		t.Errorf("ran %d steps to %v, want 5 steps to counter 5", steps, e.Current())
	}
}

func TestSynchronousSemanticsReadPreState(t *testing.T) {
	t.Parallel()
	// A protocol whose next state depends on a neighbor: v copies its
	// left neighbor's value. Under a synchronous step from [1,0,0], vertex
	// 1 must read the OLD value of vertex 0 even though vertex 0 moves in
	// the same step.
	p := &copyLeft{n: 3}
	e := MustEngine[int](p, allEnabled{}, Config[int]{1, 0, 0}, 1)
	if _, err := e.Step(); err != nil {
		t.Fatal(err)
	}
	got := e.Current()
	// Vertex 0 has no left neighbor rule; vertices 1,2 copy pre-state:
	// [1, 1, 0] — NOT [1, 1, 1], which would indicate in-step leakage.
	want := Config[int]{1, 1, 0}
	if !got.Equal(want) {
		t.Errorf("after sync step: %v, want %v", got, want)
	}
}

type copyLeft struct {
	IntWord
	n int
}

func (p *copyLeft) Name() string { return "copy-left" }
func (p *copyLeft) N() int       { return p.n }
func (p *copyLeft) EnabledRule(c Config[int], v int) (Rule, bool) {
	if v > 0 && c[v] != c[v-1] {
		return ruleInc, true
	}
	return NoRule, false
}
func (p *copyLeft) Apply(c Config[int], v int, _ Rule) int { return c[v-1] }
func (p *copyLeft) RandomState(_ int, rng *rand.Rand) int  { return rng.Intn(2) }
func (p *copyLeft) RuleName(Rule) string                   { return "copy" }

func (p *copyLeft) EnabledRuleFlat(st []int64, stride, base int, vs []int, rules []Rule) {
	for i, v := range vs {
		rules[i] = NoRule
		if v > 0 && st[v*stride+base] != st[(v-1)*stride+base] {
			rules[i] = ruleInc
		}
	}
}

func (p *copyLeft) ApplyFlat(st []int64, stride, base int, vs []int, _ []Rule, out []int64, outStride, outBase int) {
	for i, v := range vs {
		out[i*outStride+outBase] = st[(v-1)*stride+base]
	}
}

func TestMeasureConvergence(t *testing.T) {
	t.Parallel()
	p := &counterProtocol{n: 2, limit: 6}
	// "Safety" holds when counter 0 is at least 3; legitimacy when ≥ 4.
	e := MustEngine[int](p, allEnabled{}, Config[int]{0, 0}, 1)
	rep, err := MeasureConvergence(e, 100,
		func(c Config[int]) bool { return c[0] >= 3 },
		func(c Config[int]) bool { return c[0] >= 4 })
	if err != nil {
		t.Fatal(err)
	}
	if rep.LastViolationStep != 2 || rep.ConvergenceSteps != 3 {
		t.Errorf("violation=%d conv=%d, want 2 and 3", rep.LastViolationStep, rep.ConvergenceSteps)
	}
	if rep.FirstLegitStep != 4 {
		t.Errorf("legit=%d, want 4", rep.FirstLegitStep)
	}
	if rep.ClosureBroken {
		t.Error("closure wrongly reported broken")
	}
	if !rep.Terminal {
		t.Error("counter protocol should hit its fixpoint")
	}
}

func TestMeasureConvergenceDetectsClosureBreak(t *testing.T) {
	t.Parallel()
	p := &counterProtocol{n: 1, limit: 10}
	// Legitimacy at ≥2 but safety fails at ≥5: a protocol violating
	// safety after legitimacy must be reported.
	e := MustEngine[int](p, allEnabled{}, Config[int]{0}, 1)
	rep, err := MeasureConvergence(e, 100,
		func(c Config[int]) bool { return c[0] < 5 },
		func(c Config[int]) bool { return c[0] >= 2 })
	if err != nil {
		t.Fatal(err)
	}
	if !rep.ClosureBroken {
		t.Error("closure break not detected")
	}
}

func TestRunToFixpoint(t *testing.T) {
	t.Parallel()
	p := &counterProtocol{n: 3, limit: 4}
	e := MustEngine[int](p, firstOnly{}, Config[int]{0, 0, 0}, 1)
	fix, err := RunToFixpoint(e, 100)
	if err != nil || !fix {
		t.Fatalf("fix=%v err=%v", fix, err)
	}
	if e.Moves() != 9 {
		t.Errorf("moves=%d, want 9 (three counters × three increments)", e.Moves())
	}
	e2 := MustEngine[int](p, firstOnly{}, Config[int]{0, 0, 0}, 1)
	fix, err = RunToFixpoint(e2, 2)
	if err != nil || fix {
		t.Fatalf("should not reach fixpoint in 2 steps; fix=%v err=%v", fix, err)
	}
}

func TestRandomConfigUsesPerVertexDomain(t *testing.T) {
	t.Parallel()
	p := &counterProtocol{n: 5, limit: 7}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100; i++ {
		for v, s := range RandomConfig[int](p, rng) {
			if s < 0 || s >= 7 {
				t.Fatalf("vertex %d: state %d out of domain", v, s)
			}
		}
	}
}

func TestRoundsEqualStepsUnderSynchronousDaemon(t *testing.T) {
	t.Parallel()
	p := &counterProtocol{n: 5, limit: 7}
	e := MustEngine[int](p, allEnabled{}, Config[int]{0, 0, 0, 0, 0}, 1)
	for {
		progressed, err := e.Step()
		if err != nil {
			t.Fatal(err)
		}
		if !progressed {
			break
		}
		if e.Rounds() != e.Steps() {
			t.Fatalf("sync: rounds=%d steps=%d", e.Rounds(), e.Steps())
		}
	}
}

func TestRoundsUnderCentralDaemon(t *testing.T) {
	t.Parallel()
	// firstOnly always activates the smallest enabled vertex, so a round
	// completes exactly when every vertex has been bumped once: counters
	// climb in lockstep and rounds = limit−1 while steps = n·(limit−1).
	p := &counterProtocol{n: 4, limit: 6}
	e := MustEngine[int](p, firstOnly{}, Config[int]{0, 0, 0, 0}, 1)
	fix, err := RunToFixpoint(e, 1000)
	if err != nil || !fix {
		t.Fatalf("fix=%v err=%v", fix, err)
	}
	if e.Steps() != 4*5 {
		t.Errorf("steps=%d, want 20", e.Steps())
	}
	if e.Rounds() != 5 {
		t.Errorf("rounds=%d, want 5", e.Rounds())
	}
}

func TestRoundCountsDisabledVerticesAsSettled(t *testing.T) {
	t.Parallel()
	// copyLeft: from [1,0,0] vertices 1,2 are enabled. Activating vertex 1
	// disables vertex 2's guard? No — vertex 2 compares to vertex 1's new
	// value (1 ≠ 0 still). Activate vertex 1 then vertex 2: the first
	// round ends once both initially-enabled vertices fired or went
	// disabled; with firstOnly the round completes after those two steps.
	p := &copyLeft{n: 3}
	e := MustEngine[int](p, firstOnly{}, Config[int]{1, 0, 0}, 1)
	fix, err := RunToFixpoint(e, 100)
	if err != nil || !fix {
		t.Fatalf("fix=%v err=%v", fix, err)
	}
	if e.Rounds() < 1 || e.Rounds() > e.Steps() {
		t.Errorf("rounds=%d steps=%d: rounds must be in [1, steps]", e.Rounds(), e.Steps())
	}
}

func TestEngineDeterministicForSeed(t *testing.T) {
	t.Parallel()
	// Identical protocol, daemon, initial configuration and seed must
	// replay the identical execution — the property every measured
	// number in EXPERIMENTS.md relies on.
	p := &counterProtocol{n: 6, limit: 9}
	run := func() (Config[int], int, int) {
		e := MustEngine[int](p, randomOne{}, Config[int]{0, 1, 2, 0, 1, 2}, 424242)
		for i := 0; i < 25; i++ {
			if _, err := e.Step(); err != nil {
				t.Fatal(err)
			}
		}
		return e.Snapshot(), e.Steps(), e.Moves()
	}
	c1, s1, m1 := run()
	c2, s2, m2 := run()
	if !c1.Equal(c2) || s1 != s2 || m1 != m2 {
		t.Error("engine is not deterministic for a fixed seed")
	}
}

// randomOne picks a random enabled vertex using the engine's seeded rng.
type randomOne struct{}

func (randomOne) Name() string { return "test-random-one" }
func (randomOne) Select(_ Config[int], e []int, rng *rand.Rand, dst []int) []int {
	return append(dst, e[rng.Intn(len(e))])
}

package sim_test

// Differential validation of the engine: for every protocol of the
// repository, under every daemon family, across randomized seeds, every
// engine variant must replay the execution of a sequential reference
// stepper that interprets the guarded rules directly (refStepper) — same
// selected vertices, same rules, same round boundaries, same
// configuration after every step. A second matrix pins the incremental
// enabled-set tracker against full rescans, which must produce identical
// executions while the incremental engine performs strictly fewer guard
// evaluations under sparse schedules.

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"testing"

	"specstab/internal/bfstree"
	"specstab/internal/compose"
	"specstab/internal/core"
	"specstab/internal/daemon"
	"specstab/internal/dijkstra"
	"specstab/internal/graph"
	"specstab/internal/lexclusion"
	"specstab/internal/matching"
	"specstab/internal/sim"
	"specstab/internal/unison"
)

// stepRecord is one step of an execution trace, copied out of the hook.
type stepRecord struct {
	activated []int
	rules     []sim.Rule
	rounds    int
}

// enabledCount is a protocol-generic adversarial potential, the number of
// enabled vertices, so that the guard-evaluating daemons (greedy,
// lookahead) can join the matrix.
func enabledCount[S comparable](p sim.Protocol[S]) daemon.Potential[S] {
	return func(c sim.Config[S], v int) int64 {
		if _, ok := p.EnabledRule(c, v); ok {
			return 1
		}
		return 0
	}
}

// daemonMatrix returns one fresh instance per daemon family for state type
// S. Fresh construction per engine keeps stateful daemons (round-robin)
// and scratch-buffered daemons (greedy, lookahead) unshared.
func daemonMatrix[S comparable](p sim.Protocol[S]) map[string]func() sim.Daemon[S] {
	return map[string]func() sim.Daemon[S]{
		"sd":          func() sim.Daemon[S] { return daemon.NewSynchronous[S]() },
		"central":     func() sim.Daemon[S] { return daemon.NewRandomCentral[S]() },
		"min-id":      func() sim.Daemon[S] { return daemon.NewMinIDCentral[S]() },
		"max-id":      func() sim.Daemon[S] { return daemon.NewMaxIDCentral[S]() },
		"round-robin": func() sim.Daemon[S] { return daemon.NewRoundRobin[S](p.N()) },
		"distributed": func() sim.Daemon[S] { return daemon.NewDistributed[S](0.5) },
		"greedy":      func() sim.Daemon[S] { return daemon.NewGreedyCentral[S](p, enabledCount(p)) },
		"lookahead":   func() sim.Daemon[S] { return daemon.NewLookahead[S](p, enabledCount(p), 2) },
	}
}

// trace runs e for at most steps transitions and records the execution.
func trace[S comparable](t *testing.T, e *sim.Engine[S], steps int) []stepRecord {
	t.Helper()
	var recs []stepRecord
	e.AddHook(func(info sim.StepInfo) {
		recs = append(recs, stepRecord{
			activated: append([]int(nil), info.Activated...),
			rules:     append([]sim.Rule(nil), info.Rules...),
			rounds:    e.Rounds(),
		})
	})
	for i := 0; i < steps; i++ {
		progressed, err := e.Step()
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		if !progressed {
			break
		}
	}
	return recs
}

// diffCheck drives an incremental and a full-rescan engine in lockstep and
// asserts their executions are identical.
func diffCheck[S comparable](t *testing.T, p sim.Protocol[S], mk func() sim.Daemon[S], seed int64, steps int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	initial := sim.RandomConfig(p, rng)

	inc := sim.MustEngine(p, mk(), initial, seed)
	if !inc.Incremental() {
		t.Fatalf("%s does not declare sim.Local — every protocol must", p.Name())
	}
	full := sim.MustEngine(p, mk(), initial, seed)
	full.DisableIncremental()

	ti := trace(t, inc, steps)
	tf := trace(t, full, steps)

	if len(ti) != len(tf) {
		t.Fatalf("execution lengths diverge: incremental %d vs full %d", len(ti), len(tf))
	}
	for i := range ti {
		a, b := ti[i], tf[i]
		if fmt.Sprint(a.activated) != fmt.Sprint(b.activated) {
			t.Fatalf("step %d: selected vertices diverge: %v vs %v", i+1, a.activated, b.activated)
		}
		if fmt.Sprint(a.rules) != fmt.Sprint(b.rules) {
			t.Fatalf("step %d: rules diverge: %v vs %v", i+1, a.rules, b.rules)
		}
		if a.rounds != b.rounds {
			t.Fatalf("step %d: round counters diverge: %d vs %d", i+1, a.rounds, b.rounds)
		}
	}
	if !inc.Current().Equal(full.Current()) {
		t.Fatalf("final configurations diverge")
	}
	if inc.Steps() != full.Steps() || inc.Moves() != full.Moves() || inc.Rounds() != full.Rounds() {
		t.Fatalf("counters diverge: steps %d/%d moves %d/%d rounds %d/%d",
			inc.Steps(), full.Steps(), inc.Moves(), full.Moves(), inc.Rounds(), full.Rounds())
	}
}

// runMatrix exercises one protocol against the whole daemon matrix.
func runMatrix[S comparable](t *testing.T, name string, p sim.Protocol[S], steps int) {
	t.Helper()
	for dname, mk := range daemonMatrix(p) {
		mk := mk
		t.Run(name+"/"+dname, func(t *testing.T) {
			t.Parallel()
			for seed := int64(1); seed <= 5; seed++ {
				diffCheck(t, p, mk, seed, steps)
			}
		})
	}
}

// TestDifferentialIncrementalVsFullRescan is the tentpole's soundness
// gate: the dirty-set tracker must never change an execution, only the
// number of guard evaluations spent producing it.
func TestDifferentialIncrementalVsFullRescan(t *testing.T) {
	t.Parallel()

	ring := graph.Ring(7)
	grid := graph.Grid(3, 3)

	runMatrix[int](t, "dijkstra", dijkstra.MustNew(7, 7), 200)
	runMatrix[int](t, "bfstree", bfstree.MustNew(grid, 0), 200)
	runMatrix[matching.State](t, "matching", matching.New(graph.Petersen()), 200)

	uni, err := unison.New(ring, unison.MinimalParams(ring))
	if err != nil {
		t.Fatal(err)
	}
	runMatrix[int](t, "unison", uni, 200)
	runMatrix[int](t, "ssme", core.MustNew(ring), 200)
	runMatrix[int](t, "lexclusion", lexclusion.MustNew(grid, 2), 200)

	uniGrid, err := unison.New(grid, unison.MinimalParams(grid))
	if err != nil {
		t.Fatal(err)
	}
	runMatrix[compose.Pair[int, int]](t, "product", compose.MustNew[int, int](uniGrid, bfstree.MustNew(grid, 4)), 150)
}

// refStepper is the model's semantics in a screenful, the sequential
// reference every engine variant is checked against. It interprets the
// protocol's guarded rules on a plain Config[S] — no packed state, no
// enabled-set tracking, no shards: the daemon selects among the enabled
// vertices, every selected vertex computes its move against the frozen
// configuration, all moves commit together, and rounds are counted by
// their definition (a round ends once every vertex enabled at its start
// has fired or is observed disabled).
type refStepper[S comparable] struct {
	p                    sim.Protocol[S]
	d                    sim.Daemon[S]
	rng                  *rand.Rand
	cfg                  sim.Config[S]
	owed                 map[int]bool
	steps, moves, rounds int
}

func newRefStepper[S comparable](p sim.Protocol[S], d sim.Daemon[S], initial sim.Config[S], seed int64) *refStepper[S] {
	r := &refStepper[S]{p: p, d: d, rng: rand.New(rand.NewSource(seed)), cfg: initial.Clone()}
	r.charge()
	return r
}

// charge opens a round owed by every currently enabled vertex.
func (r *refStepper[S]) charge() {
	r.owed = map[int]bool{}
	for _, v := range sim.Enabled(r.p, r.cfg, nil) {
		r.owed[v] = true
	}
}

// setConfig injects c, abandoning the current round as the engine does.
func (r *refStepper[S]) setConfig(c sim.Config[S]) {
	r.cfg = c.Clone()
	r.charge()
}

// step executes one transition; ok is false on a terminal configuration.
func (r *refStepper[S]) step() (rec stepRecord, ok bool, err error) {
	enabled := sim.Enabled(r.p, r.cfg, nil)
	if len(enabled) == 0 {
		return stepRecord{}, false, nil
	}
	sel := r.d.Select(r.cfg, enabled, r.rng, nil)
	if len(sel) == 0 {
		return stepRecord{}, false, fmt.Errorf("reference: %s returned an empty selection", r.d.Name())
	}
	sort.Ints(sel)
	rules := make([]sim.Rule, len(sel))
	next := make([]S, len(sel))
	for i, v := range sel {
		rule, ok := r.p.EnabledRule(r.cfg, v)
		if !ok {
			return stepRecord{}, false, fmt.Errorf("reference: %s selected disabled vertex %d", r.d.Name(), v)
		}
		rules[i], next[i] = rule, r.p.Apply(r.cfg, v, rule)
	}
	for i, v := range sel {
		r.cfg[v] = next[i]
	}
	r.steps++
	r.moves += len(sel)
	for _, v := range sel {
		delete(r.owed, v)
	}
	for v := range r.owed {
		if _, ok := r.p.EnabledRule(r.cfg, v); !ok {
			delete(r.owed, v)
		}
	}
	if len(r.owed) == 0 {
		r.rounds++
		r.charge()
	}
	return stepRecord{activated: sel, rules: rules, rounds: r.rounds}, true, nil
}

// lockstep drives e and ref together for at most steps transitions and
// fails at the first divergence in progress, selection, rules,
// configuration or round count, then compares the counters.
func lockstep[S comparable](t *testing.T, name string, e *sim.Engine[S], ref *refStepper[S], steps int) {
	t.Helper()
	var got stepRecord
	id := e.AddHook(func(info sim.StepInfo) {
		got.activated = append(got.activated[:0], info.Activated...)
		got.rules = append(got.rules[:0], info.Rules...)
	})
	defer e.RemoveHook(id)
	for i := 1; i <= steps; i++ {
		progressed, err := e.Step()
		want, wantProgress, wantErr := ref.step()
		if err != nil || wantErr != nil {
			t.Fatalf("%s step %d: engine error %v, reference error %v", name, i, err, wantErr)
		}
		if progressed != wantProgress {
			t.Fatalf("%s step %d: engine progressed=%v, reference %v", name, i, progressed, wantProgress)
		}
		if !progressed {
			break
		}
		if fmt.Sprint(got.activated) != fmt.Sprint(want.activated) {
			t.Fatalf("%s step %d: selected vertices diverge: %v vs reference %v", name, i, got.activated, want.activated)
		}
		if fmt.Sprint(got.rules) != fmt.Sprint(want.rules) {
			t.Fatalf("%s step %d: rules diverge: %v vs reference %v", name, i, got.rules, want.rules)
		}
		if !e.Current().Equal(ref.cfg) {
			t.Fatalf("%s step %d: configurations diverge:\n%v\nreference\n%v", name, i, e.Current(), ref.cfg)
		}
		if e.Rounds() != want.rounds {
			t.Fatalf("%s step %d: round counters diverge: %d vs reference %d", name, i, e.Rounds(), want.rounds)
		}
	}
	if e.Steps() != ref.steps || e.Moves() != ref.moves || e.Rounds() != ref.rounds {
		t.Fatalf("%s: counters diverge: steps %d/%d moves %d/%d rounds %d/%d", name,
			e.Steps(), ref.steps, e.Moves(), ref.moves, e.Rounds(), ref.rounds)
	}
}

// engineVariant is one engine construction recipe of the differential
// matrix; rescan disables the incremental enabled-set tracker.
type engineVariant struct {
	name   string
	opts   sim.Options
	rescan bool
}

// engineMatrix returns the variants compared against the reference
// stepper: the incremental engine (fused synchronous path included) under
// worker counts {1, 4, GOMAXPROCS}, and the full-rescan engine sequential
// and sharded. ShardSize 2 forces the parallel phases even on the tiny
// test graphs; ShardSize 1 is the degenerate one-vertex-per-shard extreme.
func engineMatrix() []engineVariant {
	return []engineVariant{
		{"flat/w1", sim.Options{Workers: 1}, false},
		{"flat/w4", sim.Options{Workers: 4, ShardSize: 2}, false},
		{"flat/w4/s1", sim.Options{Workers: 4, ShardSize: 1}, false},
		{"flat/wmax", sim.Options{Workers: runtime.GOMAXPROCS(0), ShardSize: 2}, false},
		{"rescan/w1", sim.Options{Workers: 1}, true},
		{"rescan/w4/s1", sim.Options{Workers: 4, ShardSize: 1}, true},
	}
}

// diffBackends drives every engine variant and the reference stepper from
// the same initial configuration and seed, in lockstep.
func diffBackends[S comparable](t *testing.T, p sim.Protocol[S], mk func() sim.Daemon[S], seed int64, steps int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	initial := sim.RandomConfig(p, rng)
	for _, v := range engineMatrix() {
		e, err := sim.NewEngineWith(p, mk(), initial, seed, v.opts)
		if err != nil {
			t.Fatalf("%s: %v", v.name, err)
		}
		if v.rescan {
			e.DisableIncremental()
		}
		lockstep(t, v.name, e, newRefStepper(p, mk(), initial, seed), steps)
		// Release owned pools deterministically: the matrix builds many
		// parallel engines, and parked helpers should not accumulate until
		// the collector gets around to them.
		e.Close()
	}
}

// runBackendMatrix exercises one protocol against the whole daemon matrix
// across engine variants.
func runBackendMatrix[S comparable](t *testing.T, name string, p sim.Protocol[S], steps int) {
	t.Helper()
	for dname, mk := range daemonMatrix(p) {
		mk := mk
		t.Run(name+"/"+dname, func(t *testing.T) {
			t.Parallel()
			for seed := int64(1); seed <= 3; seed++ {
				diffBackends(t, p, mk, seed, steps)
			}
		})
	}
}

// TestDifferentialBackendsAndWorkers is the engine's soundness gate: for
// every protocol, under every daemon family, every worker/shard variant of
// the packed engine, incremental and full-rescan, must replay the
// reference stepper's execution bit for bit after every step.
func TestDifferentialBackendsAndWorkers(t *testing.T) {
	t.Parallel()

	ring := graph.Ring(7)
	grid := graph.Grid(3, 3)

	runBackendMatrix[int](t, "dijkstra", dijkstra.MustNew(7, 7), 150)
	runBackendMatrix[int](t, "bfstree", bfstree.MustNew(grid, 0), 150)
	runBackendMatrix[matching.State](t, "matching", matching.New(graph.Petersen()), 150)
	runBackendMatrix[int](t, "ssme", core.MustNew(ring), 150)
	runBackendMatrix[int](t, "lexclusion", lexclusion.MustNew(grid, 2), 150)

	uni, err := unison.New(ring, unison.MinimalParams(ring))
	if err != nil {
		t.Fatal(err)
	}
	runBackendMatrix[int](t, "unison", uni, 150)

	uniGrid, err := unison.New(grid, unison.MinimalParams(grid))
	if err != nil {
		t.Fatal(err)
	}
	runBackendMatrix[compose.Pair[int, int]](t, "product",
		compose.MustNew[int, int](uniGrid, bfstree.MustNew(grid, 4)), 120)

	// On the graphs above every dirty set reaches a quarter of the
	// vertices, so refreshEnabled always rebuilds densely. These sizes keep
	// a central step's dirty set below that, driving the sparse merge.
	bigRing := graph.Ring(40)
	bigGrid := graph.Grid(6, 6)
	uniBig, err := unison.New(bigRing, unison.MinimalParams(bigRing))
	if err != nil {
		t.Fatal(err)
	}
	runBackendMatrix[int](t, "dijkstra-sparse", dijkstra.MustNew(40, 40), 150)
	runBackendMatrix[int](t, "ssme-sparse", core.MustNew(bigRing), 150)
	runBackendMatrix[int](t, "unison-sparse", uniBig, 150)
	runBackendMatrix[matching.State](t, "matching-sparse", matching.New(bigGrid), 150)
	runBackendMatrix[compose.Pair[int, int]](t, "product-sparse",
		compose.MustNew[int, int](uniBig, bfstree.MustNew(bigRing, 0)), 120)
}

// TestDifferentialLeaveFullFiring: while every vertex is enabled the engine
// keeps allVerts itself as its enabled list and as the round's owed list.
// These rows leave that state for a sparse regime by each route — sd then
// SetConfig, sd then DisableIncremental and SetConfig, a central daemon
// settling a fully owed round — and must match the reference step by
// step, so no rebuild or settlement ever writes into allVerts.
func TestDifferentialLeaveFullFiring(t *testing.T) {
	t.Parallel()
	const n = 40
	g := graph.Ring(n)
	p, err := unison.New(g, unison.MinimalParams(g))
	if err != nil {
		t.Fatal(err)
	}
	uniform := make(sim.Config[int], n) // every vertex enabled, at every sd step
	// A staircase 0,1,…,n/2,…,1 has one local minimum: one vertex enabled.
	stair := make(sim.Config[int], n)
	for v := range stair {
		stair[v] = min(v, n-v)
	}
	if k := len(sim.Enabled[int](p, stair, nil)); 4*k >= n {
		t.Fatalf("staircase has %d of %d vertices enabled; the rows need a sparse regime", k, n)
	}
	rows := []struct {
		name    string
		mk      func() sim.Daemon[int]
		disable bool
	}{
		{"sd/set-config", func() sim.Daemon[int] { return daemon.NewSynchronous[int]() }, false},
		{"sd/disable-incremental", func() sim.Daemon[int] { return daemon.NewSynchronous[int]() }, true},
		{"central/set-config", func() sim.Daemon[int] { return daemon.NewRandomCentral[int]() }, false},
	}
	for _, row := range rows {
		for _, v := range engineMatrix() {
			name := row.name + "/" + v.name
			e, err := sim.NewEngineWith[int](p, row.mk(), uniform, 1, v.opts)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if v.rescan {
				e.DisableIncremental()
			}
			ref := newRefStepper[int](p, row.mk(), uniform, 1)
			lockstep(t, name, e, ref, 8)
			if row.disable {
				e.DisableIncremental()
				lockstep(t, name, e, ref, 4)
			}
			if err := e.SetConfig(stair); err != nil {
				t.Fatal(err)
			}
			ref.setConfig(stair)
			lockstep(t, name, e, ref, 60)
			e.Close()
		}
	}
}

// TestProductWithoutLocalFallsBack: a product with a non-Local component
// must not claim locality, and the engine must fall back to full rescans.
func TestProductWithoutLocalFallsBack(t *testing.T) {
	t.Parallel()
	g := graph.Ring(5)
	p := compose.MustNew[int, int](opaque{bfstree.MustNew(g, 0)}, bfstree.MustNew(g, 2))
	if sim.LocalOf[compose.Pair[int, int]](p) != nil {
		t.Fatal("product of a non-Local component must not declare locality")
	}
	type pair = compose.Pair[int, int]
	initial := sim.RandomConfig[pair](p, rand.New(rand.NewSource(1)))
	e := sim.MustEngine[pair](p, daemon.NewSynchronous[pair](), initial, 1)
	if e.Incremental() {
		t.Fatal("engine must fall back to full rescans")
	}
	lockstep(t, "product/rescan", e, newRefStepper[pair](p, daemon.NewSynchronous[pair](), initial, 1), 20)
}

// opaque wraps a protocol, hiding its Local declaration but forwarding
// its flat codec and rule bound, so engines over it take the full-rescan
// path.
type opaque struct {
	p sim.Protocol[int]
}

func (o opaque) Flat() (sim.Flat[int], bool) {
	f := sim.FlatOf(o.p)
	return f, f != nil
}
func (o opaque) MaxRule() sim.Rule {
	r, _ := sim.MaxRuleOf(o.p)
	return r
}

func (o opaque) Name() string                                          { return o.p.Name() }
func (o opaque) N() int                                                { return o.p.N() }
func (o opaque) EnabledRule(c sim.Config[int], v int) (sim.Rule, bool) { return o.p.EnabledRule(c, v) }
func (o opaque) Apply(c sim.Config[int], v int, r sim.Rule) int        { return o.p.Apply(c, v, r) }
func (o opaque) RandomState(v int, rng *rand.Rand) int                 { return o.p.RandomState(v, rng) }
func (o opaque) RuleName(r sim.Rule) string                            { return o.p.RuleName(r) }

// TestIncrementalGuardSavingsRing4096 locks the acceptance criterion: on a
// 4096-vertex ring under a central daemon the incremental engine must
// perform at least 5× fewer guard evaluations than the full-rescan engine
// for the same execution (measured: ~1000× — O(Δ·deg) vs O(N) per step).
func TestIncrementalGuardSavingsRing4096(t *testing.T) {
	t.Parallel()
	const n, steps = 4096, 2000
	p := dijkstra.MustNew(n, n)
	rng := rand.New(rand.NewSource(3))
	initial := sim.RandomConfig[int](p, rng)

	inc := sim.MustEngine[int](p, daemon.NewRandomCentral[int](), initial, 3)
	full := sim.MustEngine[int](p, daemon.NewRandomCentral[int](), initial, 3)
	full.DisableIncremental()

	for i := 0; i < steps; i++ {
		pi, err := inc.Step()
		if err != nil {
			t.Fatal(err)
		}
		pf, err := full.Step()
		if err != nil {
			t.Fatal(err)
		}
		if pi != pf {
			t.Fatalf("step %d: progress diverges", i)
		}
	}
	if !inc.Current().Equal(full.Current()) {
		t.Fatal("executions diverge")
	}
	gi, gf := inc.GuardEvals(), full.GuardEvals()
	if gi == 0 || gf == 0 {
		t.Fatalf("guard accounting broken: incremental=%d full=%d", gi, gf)
	}
	ratio := float64(gf) / float64(gi)
	t.Logf("ring-%d central daemon, %d steps: incremental %d vs full %d guard evals (%.0f× fewer)",
		n, steps, gi, gf, ratio)
	if ratio < 5 {
		t.Fatalf("incremental engine saves only %.2f× guard evaluations, want ≥5×", ratio)
	}
}

package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
)

// StepInfo describes one executed step for hooks and traces.
type StepInfo struct {
	// Step is the 1-based index of the transition just executed.
	Step int
	// Activated lists the vertices that fired, in increasing order.
	Activated []int
	// Rules[i] is the rule fired by Activated[i].
	Rules []Rule
}

// Clone returns a StepInfo with independently owned Activated/Rules
// slices — the copy a hook must take before retaining the info beyond its
// own invocation (see Hook).
func (i StepInfo) Clone() StepInfo {
	out := StepInfo{Step: i.Step}
	if i.Activated != nil {
		out.Activated = append(make([]int, 0, len(i.Activated)), i.Activated...)
	}
	if i.Rules != nil {
		out.Rules = append(make([]Rule, 0, len(i.Rules)), i.Rules...)
	}
	return out
}

// Hook observes executed steps.
//
// Aliasing contract: the Activated and Rules slices are owned by the
// engine and reused between steps — they are valid only for the duration
// of the hook invocation. A hook that retains the info (step logs,
// deferred analysis) must take StepInfo.Clone; a hook that only reads the
// slices inside its body needs no copy. Hooks run synchronously on the
// engine's step path after the state commit, so they observe the
// post-step configuration via Current().
type Hook func(StepInfo)

// HookID identifies a hook installed with AddHook, for RemoveHook.
type HookID int

// Engine drives one execution of a protocol under a daemon from a given
// initial configuration. It is deterministic: given the same protocol,
// daemon, initial configuration and seed, it replays the same execution
// (daemon randomness is drawn from the engine's seeded generator) — for
// every backend, worker count and shard size.
//
// When the protocol declares its guard read-sets (the Local capability),
// the engine maintains the enabled set incrementally: after each step only
// the activated vertices and the vertices that read them are re-evaluated,
// O(Δ·avg-degree) guard evaluations per step instead of O(N). Executions
// are bitwise identical either way — the tracker is exact, not a heuristic
// (the differential tests assert this across every protocol and daemon).
//
// When the protocol additionally provides the Flat capability (see
// flat.go), the engine packs the configuration into a []int64 array and
// evaluates guards and moves with batch kernels — no per-guard interface
// dispatch, no per-step allocation. Each step is double-buffered: the
// evaluate phase computes every next state from the frozen packed front
// buffer (in parallel, contiguous shard by contiguous shard, when the
// selection is large enough), and only after all shards join does the
// commit phase merge the staged states back in shard order — which is why
// executions stay bitwise identical to the sequential generic path.
type Engine[S comparable] struct {
	p   Protocol[S]
	d   Daemon[S]
	cfg Config[S]
	rng *rand.Rand

	steps int
	moves int

	// Observer pipeline: the AddHook fan-out, invoked in insertion order.
	hooks  []hookEntry
	nextID HookID

	// Round accounting: a round is a minimal execution segment in which
	// every vertex enabled at the segment's start is activated or
	// observed disabled — the standard asynchronous time measure of the
	// self-stabilization literature. owedList holds, in increasing order,
	// the vertices from the current round's start not yet discharged;
	// settlement is a sorted merge against the activated list, so it
	// costs O(|owed| + Δ) per step with no mark arrays to clear.
	rounds   int
	owedList []int

	// Incremental enabled-set maintenance (nil/empty without Local):
	// influence[v] is {v} ∪ {u : v ∈ Neighbors(u)}, ruleOf mirrors the
	// maintained enabled list (NoRule = disabled; otherwise the enabled
	// rule, so steps need no guard re-evaluation at all), dirty/dirtyMark
	// are per-step scratch.
	loc        Local
	influence  [][]int
	ruleOf     []Rule
	dirty      []int
	dirtyMark  []bool
	enabledAlt []int // spare buffer the merge writes into

	// Flat backend state (nil fl ⇒ generic backend). st is the packed
	// front buffer — the source of truth; cfg is kept as a live decoded
	// shadow (updated per move), so daemons, hooks and Current() observe
	// exactly the values the generic backend would.
	fl       Flat[S]
	w        int     // words per vertex
	st       []int64 // packed configuration, vertex-major
	nextW    []int64 // staged next words, indexed by selection position
	stNext   []int64 // back buffer of the fused synchronous step (swapped, not copied)
	allVerts []int   // identity list for batch rescans
	allRules []Rule  // rescan scratch

	// Shard-parallel phases (see forShards): workers bounds the fan-out,
	// shardSize the minimum batch per shard, shardErrs the per-shard error
	// slots (merged in shard order for determinism). pool is the persistent
	// worker team the shards run on — either Options.Pool (shared across
	// engines) or a lazily owned pool (owned=true), released by Close or by
	// the runtime cleanup when the engine is collected.
	workers   int
	shardSize int
	shardErrs []error
	pool      *Pool
	owned     bool
	cleanup   runtime.Cleanup
	arenas    [][]int // per-shard enabled-list arenas (refreshDense/rescan)
	offsets   []int   // arena concatenation offsets scratch

	// guardEvals counts EnabledRule evaluations made by the engine itself
	// (rescans, incremental refreshes, rule lookups, round settlement),
	// batch kernels included vertex by vertex. Guard evaluations a daemon
	// performs internally are not included.
	guardEvals int64

	// Scratch buffers reused across steps.
	enabled    []int
	selected   []int
	rules      []Rule
	next       []S
	dirtyRules []Rule
	oneV       [1]int
	oneR       [1]Rule
}

// NewEngine creates an engine executing p under d starting from initial,
// with default Options (automatic backend selection, GOMAXPROCS shard
// workers). The initial configuration is cloned; seed fixes all daemon
// randomness. If p declares the Local capability the engine starts in
// incremental mode; DisableIncremental reverts to full rescans.
func NewEngine[S comparable](p Protocol[S], d Daemon[S], initial Config[S], seed int64) (*Engine[S], error) {
	return NewEngineWith(p, d, initial, seed, Options{})
}

// NewEngineWith is NewEngine with explicit backend/parallelism Options.
// Executions are bitwise identical for every option choice; only the cost
// of producing them changes.
func NewEngineWith[S comparable](p Protocol[S], d Daemon[S], initial Config[S], seed int64, opts Options) (*Engine[S], error) {
	if err := Validate(p, initial); err != nil {
		return nil, err
	}
	if opts.Workers < 0 {
		return nil, fmt.Errorf("sim: Options.Workers is negative (%d); use 0 for the GOMAXPROCS default or 1 to disable parallelism", opts.Workers)
	}
	if opts.ShardSize < 0 {
		return nil, fmt.Errorf("sim: Options.ShardSize is negative (%d); use 0 for the default (%d)", opts.ShardSize, DefaultShardSize)
	}
	workers := opts.Workers
	if workers == 0 {
		if opts.Pool != nil {
			workers = opts.Pool.Workers()
		} else {
			workers = runtime.GOMAXPROCS(0)
		}
	}
	shardSize := opts.ShardSize
	if shardSize == 0 {
		shardSize = DefaultShardSize
	}
	e := &Engine[S]{
		p:         p,
		d:         d,
		cfg:       initial.Clone(),
		rng:       rand.New(rand.NewSource(seed)),
		enabled:   make([]int, 0, p.N()),
		workers:   workers,
		shardSize: shardSize,
		shardErrs: make([]error, workers),
	}
	if workers > 1 {
		if opts.Pool != nil {
			e.pool = opts.Pool
		} else {
			// A private pool, tied to the engine's lifetime: Close releases
			// it deterministically; the cleanup catches engines that are
			// simply dropped, so parked helper goroutines never outlive the
			// engines that started them. The cleanup closure must not
			// capture e (that would keep the engine reachable forever).
			e.pool = NewPool(workers)
			e.owned = true
			e.cleanup = runtime.AddCleanup(e, func(p *Pool) { p.Close() }, e.pool)
		}
	}
	switch opts.Backend {
	case BackendAuto:
		e.fl = FlatOf(p)
	case BackendFlat:
		e.fl = FlatOf(p)
		if e.fl == nil {
			return nil, fmt.Errorf("sim: %s does not provide the Flat capability", p.Name())
		}
	case BackendGeneric:
	default:
		return nil, fmt.Errorf("sim: unknown backend %d", opts.Backend)
	}
	if e.fl != nil {
		w := e.fl.FlatWords()
		if w < 1 {
			return nil, fmt.Errorf("sim: %s flat codec declares %d words per vertex", p.Name(), w)
		}
		e.w = w
		n := p.N()
		e.st = make([]int64, n*w)
		for v := 0; v < n; v++ {
			e.fl.EncodeState(v, e.cfg[v], e.st[v*w:(v+1)*w])
		}
		// Shadow = decode(encode(initial)), so the shadow invariant
		// cfg[v] == DecodeState(v, st[v*w:]) holds from the first step.
		for v := 0; v < n; v++ {
			e.cfg[v] = e.fl.DecodeState(v, e.st[v*w:(v+1)*w])
		}
		e.allVerts = make([]int, n)
		for v := range e.allVerts {
			e.allVerts[v] = v
		}
	}
	if l := LocalOf(p); l != nil {
		e.loc = l
		e.influence = influenceSets(p.N(), l)
		e.ruleOf = make([]Rule, p.N())
		e.dirtyMark = make([]bool, p.N())
		e.seedEnabled()
	}
	e.startRound()
	return e, nil
}

// seedEnabled performs the one full guard scan incremental mode needs: it
// fills ruleOf and the maintained enabled list from the initial
// configuration. Every later update is a dirty-set refresh.
func (e *Engine[S]) seedEnabled() { e.refreshDense() }

// refreshDense re-evaluates every guard with batch kernels and rebuilds
// the enabled list — cheaper than dirty-set bookkeeping once a sizable
// fraction of the vertices fired (the synchronous-daemon regime: no
// influence-set iteration, no mark churn, no sort). Each shard evaluates
// its guard range and collects its enabled vertices into a per-shard
// arena in the same pass; the arenas are then concatenated in shard
// order, so the rebuilt list is identical for every worker count.
func (e *Engine[S]) refreshDense() {
	n := e.p.N()
	e.guardEvals += int64(n)
	arenas := e.shardArenas()
	var shards int
	if e.fl != nil {
		shards = e.forShards(n, func(sh, lo, hi int) {
			e.fl.EnabledRuleFlat(e.st, e.w, 0, e.allVerts[lo:hi], e.ruleOf[lo:hi])
			arenas[sh] = appendEnabled(arenas[sh][:0], e.ruleOf, lo, hi)
		})
	} else {
		shards = e.forShards(n, func(sh, lo, hi int) {
			for v := lo; v < hi; v++ {
				r, ok := e.p.EnabledRule(e.cfg, v)
				if !ok {
					r = NoRule
				}
				e.ruleOf[v] = r
			}
			arenas[sh] = appendEnabled(arenas[sh][:0], e.ruleOf, lo, hi)
		})
	}
	// Swap the maintained list with the spare buffer: the old backing array
	// stays intact (as enabledAlt[:0]) until the next rebuild appends to
	// it, which is what keeps a selection aliasing the old list — the fused
	// synchronous step's activated slice — valid through round settlement
	// and the hook pipeline.
	out := e.concatArenas(e.enabledAlt, shards)
	e.enabledAlt = e.enabled[:0]
	e.enabled = out
}

// shardArenas sizes the per-shard arena table to the worker bound (the
// shard count never exceeds it) and returns it.
func (e *Engine[S]) shardArenas() [][]int {
	if cap(e.arenas) < e.workers {
		e.arenas = make([][]int, e.workers)
	}
	e.arenas = e.arenas[:e.workers]
	return e.arenas
}

// appendEnabled collects the vertices of [lo, hi) with a set rule, in
// increasing order.
func appendEnabled(dst []int, ruleOf []Rule, lo, hi int) []int {
	for v := lo; v < hi; v++ {
		if ruleOf[v] != NoRule {
			dst = append(dst, v)
		}
	}
	return dst
}

// concatArenas joins the first shards arenas in shard order into dst's
// backing array (reallocating only on growth) and returns the result —
// the deterministic concatenation that makes the parallel rebuild
// order-independent. Large concatenations copy shard-parallel: the
// destination ranges are disjoint by construction.
func (e *Engine[S]) concatArenas(dst []int, shards int) []int {
	e.offsets = growSlice(e.offsets, shards)
	total := 0
	for sh := 0; sh < shards; sh++ {
		e.offsets[sh] = total
		total += len(e.arenas[sh])
	}
	out := growSlice(dst[:0], total)
	if shards > 1 && e.pool != nil && total > e.shardSize {
		e.pool.run(shards, func(sh int) {
			copy(out[e.offsets[sh]:], e.arenas[sh])
		})
		return out
	}
	for sh := 0; sh < shards; sh++ {
		copy(out[e.offsets[sh]:], e.arenas[sh])
	}
	return out
}

// evalGuard is a single-vertex EnabledRule with accounting, dispatched to
// the active backend.
func (e *Engine[S]) evalGuard(v int) (Rule, bool) {
	e.guardEvals++
	if e.fl != nil {
		e.oneV[0] = v
		e.fl.EnabledRuleFlat(e.st, e.w, 0, e.oneV[:], e.oneR[:])
		return e.oneR[0], e.oneR[0] != NoRule
	}
	return e.p.EnabledRule(e.cfg, v)
}

// rescan recomputes the enabled list with a full guard sweep (the
// non-incremental path, and the incremental seed). The flat backend
// sweeps with sharded batch kernels.
func (e *Engine[S]) rescan() []int {
	n := e.p.N()
	e.guardEvals += int64(n)
	if e.fl != nil {
		e.allRules = growSlice(e.allRules, n)
		arenas := e.shardArenas()
		shards := e.forShards(n, func(sh, lo, hi int) {
			e.fl.EnabledRuleFlat(e.st, e.w, 0, e.allVerts[lo:hi], e.allRules[lo:hi])
			arenas[sh] = appendEnabled(arenas[sh][:0], e.allRules, lo, hi)
		})
		e.enabled = e.concatArenas(e.enabled, shards)
		return e.enabled
	}
	e.enabled = Enabled(e.p, e.cfg, e.enabled)
	return e.enabled
}

// startRound charges the current enabled set to the new round.
func (e *Engine[S]) startRound() {
	e.owedList = append(e.owedList[:0], e.Enabled()...)
}

// settleRound discharges owed vertices after a step: a vertex is settled
// once it has been activated or is observed disabled. When all are
// settled, a round completes and the next one is charged. Both lists are
// sorted, so one merge pass compacts the owed list in place. A selection
// is a subset of the enabled vertices, so when all n fired every owed
// vertex is discharged by firing and the merge is skipped — the steady
// state of a synchronous execution.
func (e *Engine[S]) settleRound(activated []int) {
	if len(activated) == e.p.N() {
		e.rounds++
		e.startRound()
		return
	}
	w, j := 0, 0
	for _, v := range e.owedList {
		for j < len(activated) && activated[j] < v {
			j++
		}
		if j < len(activated) && activated[j] == v {
			continue // discharged by firing
		}
		if !e.vertexEnabled(v) {
			continue // observed disabled
		}
		e.owedList[w] = v
		w++
	}
	e.owedList = e.owedList[:w]
	if w == 0 {
		e.rounds++
		e.startRound()
	}
}

// vertexEnabled reports v's current enabledness: a free lookup in
// incremental mode, a (counted) guard evaluation otherwise.
func (e *Engine[S]) vertexEnabled(v int) bool {
	if e.loc != nil {
		return e.ruleOf[v] != NoRule
	}
	_, ok := e.evalGuard(v)
	return ok
}

// MustEngine is NewEngine for statically correct inputs; it panics on error.
func MustEngine[S comparable](p Protocol[S], d Daemon[S], initial Config[S], seed int64) *Engine[S] {
	e, err := NewEngine(p, d, initial, seed)
	if err != nil {
		panic(err)
	}
	return e
}

// Protocol returns the protocol under execution.
func (e *Engine[S]) Protocol() Protocol[S] { return e.p }

// Daemon returns the driving daemon.
func (e *Engine[S]) Daemon() Daemon[S] { return e.d }

// Backend reports the execution representation actually selected:
// BackendFlat when the engine runs on packed state, BackendGeneric
// otherwise (never BackendAuto).
func (e *Engine[S]) Backend() Backend {
	if e.fl != nil {
		return BackendFlat
	}
	return BackendGeneric
}

// Workers returns the shard-worker bound of the parallel evaluate phase.
func (e *Engine[S]) Workers() int { return e.workers }

// Close releases the engine's privately owned worker pool, if any —
// deterministic teardown for callers that build many parallel engines
// (benchmarks, sweeps). Idempotent. The engine stays fully usable after
// Close: sharded phases simply run inline. A pool supplied via
// Options.Pool is shared and is never closed here; engines that are
// dropped without Close release their owned pool via a runtime cleanup
// when collected.
func (e *Engine[S]) Close() {
	if e.owned {
		e.owned = false
		e.cleanup.Stop()
		e.pool.Close()
	}
}

// Current returns the live configuration. It is shared with the engine and
// must be treated as read-only; use Snapshot for an owned copy. On the
// flat backend this is the decoded shadow, updated in place every step, so
// the returned slice stays live across steps exactly as on the generic
// backend.
func (e *Engine[S]) Current() Config[S] { return e.cfg }

// Snapshot returns an independent copy of the current configuration.
func (e *Engine[S]) Snapshot() Config[S] { return e.cfg.Clone() }

// Steps returns the number of transitions executed so far.
func (e *Engine[S]) Steps() int { return e.steps }

// Moves returns the total number of vertex activations executed so far.
func (e *Engine[S]) Moves() int { return e.moves }

// Rounds returns the number of completed asynchronous rounds: execution
// segments in which every vertex enabled at the segment start fired or
// became disabled. Under the synchronous daemon every step is one round.
func (e *Engine[S]) Rounds() int { return e.rounds }

// GuardEvals returns the number of guard (EnabledRule) evaluations the
// engine has performed so far — the hot-path cost measure the scaling
// benchmarks report. Incremental engines spend O(Δ·avg-degree) per step;
// full-rescan engines spend O(N).
func (e *Engine[S]) GuardEvals() int64 { return e.guardEvals }

// Incremental reports whether the engine is maintaining the enabled set
// incrementally via the protocol's Local declaration.
func (e *Engine[S]) Incremental() bool { return e.loc != nil }

// DisableIncremental switches the engine to full guard rescans even when
// the protocol declares Local. The execution itself is unaffected — only
// the guard-evaluation cost changes — which is exactly what the
// differential tests exploit to prove the tracker sound. Safe to call at
// any point of an execution.
func (e *Engine[S]) DisableIncremental() {
	e.loc = nil
	e.influence = nil
	e.ruleOf = nil
	e.dirty = nil
	e.dirtyMark = nil
	e.enabledAlt = nil
}

// hookEntry is one AddHook registration.
type hookEntry struct {
	id HookID
	h  Hook
}

// AddHook appends h to the engine's observer pipeline and returns an id
// for RemoveHook. Hooks run synchronously after each committed step, in
// insertion order; every hook sees the same
// StepInfo (subject to the aliasing contract on Hook). Any number of
// observers — traces, convergence measurement, guard accounting, service
// adapters — can therefore watch one engine without conflicting.
func (e *Engine[S]) AddHook(h Hook) HookID {
	e.nextID++
	e.hooks = append(e.hooks, hookEntry{id: e.nextID, h: h})
	return e.nextID
}

// RemoveHook uninstalls the hook registered under id, reporting whether it
// was present. Removal swaps in a fresh registration list, so a removal
// performed from inside a hook is safe: the in-flight step finishes over
// the old list (the removed hook still sees that step) and later steps use
// the new one.
func (e *Engine[S]) RemoveHook(id HookID) bool {
	for i := range e.hooks {
		if e.hooks[i].id == id {
			out := make([]hookEntry, 0, len(e.hooks)-1)
			out = append(out, e.hooks[:i]...)
			out = append(out, e.hooks[i+1:]...)
			e.hooks = out
			return true
		}
	}
	return false
}

// fireHooks runs the pipeline for one step, over a snapshot of the
// registration list (see RemoveHook).
func (e *Engine[S]) fireHooks(info StepInfo) {
	for _, he := range e.hooks {
		he.h(info)
	}
}

// SetConfig replaces the live configuration mid-execution — the transient
// fault of the paper's model, injected without tearing the engine down
// (influence sets, packed buffers and daemon state all survive, which is
// what lets a service simulation corrupt registers between steps of one
// continuous execution). The step/move/guard counters keep running; the
// current round is abandoned and a fresh one is charged from the new
// enabled set, since a corruption invalidates the owed-vertex accounting
// of the interrupted round. Deterministic: the replacement itself draws no
// randomness, so executions remain a pure function of (protocol, daemon,
// seed, injected configurations) for every backend and worker count.
func (e *Engine[S]) SetConfig(c Config[S]) error {
	if err := Validate(e.p, c); err != nil {
		return err
	}
	copy(e.cfg, c)
	if e.fl != nil {
		w := e.w
		e.forShards(e.p.N(), func(_, lo, hi int) {
			for v := lo; v < hi; v++ {
				e.fl.EncodeState(v, e.cfg[v], e.st[v*w:(v+1)*w])
			}
			// Shadow = decode(encode(·)), the invariant NewEngineWith
			// establishes, restored for the injected states.
			for v := lo; v < hi; v++ {
				e.cfg[v] = e.fl.DecodeState(v, e.st[v*w:(v+1)*w])
			}
		})
	}
	if e.loc != nil {
		e.refreshDense()
	}
	e.startRound()
	return nil
}

// Enabled returns the enabled vertices of the current configuration, in
// increasing order; the slice is owned by the engine. In incremental mode
// this is the maintained set (no guard evaluations); otherwise it is
// recomputed with a full sweep.
func (e *Engine[S]) Enabled() []int {
	if e.loc != nil {
		return e.enabled
	}
	return e.rescan()
}

// EnabledCount returns the size of the engine's most recently computed
// enabled set without recomputing anything — the side-effect-free read
// for observers (the telemetry gauges). Unlike Enabled, it never charges
// a rescan on non-incremental engines, so attaching an observer cannot
// perturb the guard-evaluation counters it reports. In incremental mode
// the value is exact after every committed step; otherwise it is the set
// Step computed before firing — one configuration behind when read from
// a post-commit hook, which is the accepted staleness of a gauge.
func (e *Engine[S]) EnabledCount() int { return len(e.enabled) }

// refreshEnabled updates the incremental enabled set after the vertices in
// activated changed state: every activated vertex's influence set is
// re-evaluated (batched, and sharded when large) and the enabled list is
// patched. Sparse dirty sets are spliced into the sorted list by a linear
// merge; dense ones — the synchronous-daemon regime, where the dirty set
// approaches the whole vertex set — skip the bookkeeping and re-scan with
// batch kernels (refreshDense). Every strategy produces the identical
// sorted enabled list.
func (e *Engine[S]) refreshEnabled(activated []int) {
	if 4*len(activated) >= e.p.N() {
		e.refreshDense()
		return
	}
	e.dirty = e.dirty[:0]
	for _, v := range activated {
		for _, u := range e.influence[v] {
			if !e.dirtyMark[u] {
				e.dirtyMark[u] = true
				e.dirty = append(e.dirty, u)
			}
		}
	}
	n := e.p.N()
	k := len(e.dirty)
	dense := 4*k >= n
	if !dense {
		sort.Ints(e.dirty)
	}
	e.guardEvals += int64(k)
	if e.fl != nil {
		e.dirtyRules = growSlice(e.dirtyRules, k)
		e.forShards(k, func(_, lo, hi int) {
			e.fl.EnabledRuleFlat(e.st, e.w, 0, e.dirty[lo:hi], e.dirtyRules[lo:hi])
		})
		for i, u := range e.dirty {
			e.ruleOf[u] = e.dirtyRules[i]
			e.dirtyMark[u] = false
		}
	} else {
		e.forShards(k, func(_, lo, hi int) {
			for _, u := range e.dirty[lo:hi] {
				r, ok := e.p.EnabledRule(e.cfg, u)
				if !ok {
					r = NoRule
				}
				e.ruleOf[u] = r
			}
		})
		for _, u := range e.dirty {
			e.dirtyMark[u] = false
		}
	}
	if dense {
		out := e.enabledAlt[:0]
		for v, r := range e.ruleOf {
			if r != NoRule {
				out = append(out, v)
			}
		}
		e.enabledAlt = e.enabled[:0]
		e.enabled = out
		return
	}
	// Merge: keep non-dirty entries of the old enabled list, splice dirty
	// vertices back in by their fresh enabledness. Both inputs are sorted,
	// so one linear pass rebuilds the list in increasing order.
	out := e.enabledAlt[:0]
	i, j := 0, 0
	for i < len(e.enabled) || j < len(e.dirty) {
		switch {
		case j == len(e.dirty) || (i < len(e.enabled) && e.enabled[i] < e.dirty[j]):
			out = append(out, e.enabled[i])
			i++
		default:
			if i < len(e.enabled) && e.enabled[i] == e.dirty[j] {
				i++
			}
			if e.ruleOf[e.dirty[j]] != NoRule {
				out = append(out, e.dirty[j])
			}
			j++
		}
	}
	e.enabledAlt = e.enabled[:0]
	e.enabled = out
}

// ErrDaemonSelection reports a daemon returning an empty or invalid
// selection — a bug in the daemon, not a property of the protocol.
var ErrDaemonSelection = errors.New("sim: daemon returned an invalid selection")

// Step executes one transition. It returns false when the configuration is
// terminal (no enabled vertex), which for perpetual specifications is
// itself a reportable anomaly. The error path only triggers on misbehaving
// daemons.
//
// All activated vertices read the same pre-state γ and write γ′ together,
// which is exactly the paper's notion of an action: the engine first
// computes every next state from the unmodified configuration (the
// evaluate phase — sharded across workers for large selections), then
// commits them in shard order.
func (e *Engine[S]) Step() (bool, error) {
	enabled := e.Enabled()
	if len(enabled) == 0 {
		return false, nil
	}
	sel := e.d.Select(e.cfg, enabled, e.rng)
	if len(sel) == 0 {
		return false, fmt.Errorf("%w: empty selection by %s", ErrDaemonSelection, e.d.Name())
	}
	if e.fusedEligible(sel, enabled) {
		return e.stepFused(sel)
	}
	e.selected = append(e.selected[:0], sel...)
	if !sort.IntsAreSorted(e.selected) {
		// Daemons normally select in increasing id order (StepInfo
		// documents it); normalize the rare exception so the sorted-merge
		// round settlement and the hook contract stay valid.
		sort.Ints(e.selected)
	}
	if err := e.evalMoves(); err != nil {
		return false, err
	}
	e.commitMoves()
	e.steps++
	e.moves += len(e.selected)
	if e.loc != nil {
		e.refreshEnabled(e.selected)
	}
	e.settleRound(e.selected)
	e.fireHooks(StepInfo{Step: e.steps, Activated: e.selected, Rules: e.rules})
	return true, nil
}

// fusedEligible reports whether the step can take the fused synchronous
// fast path (stepFused): packed state with incremental tracking, a
// selection that is the maintained enabled list itself (the synchronous
// daemon returns the enabled slice unmodified, so identity of the backing
// array identifies it), and a dense firing front — the regime where the
// general path would rebuild the enabled list with refreshDense anyway.
// Sparse fronts stay on the general path: its dirty-set merge beats a full
// rescan there. The sortedness check guards against a daemon permuting the
// enabled list in place; any failure falls back to the general path, which
// normalizes and handles every case.
func (e *Engine[S]) fusedEligible(sel, enabled []int) bool {
	return e.fl != nil && e.loc != nil &&
		len(sel) == len(enabled) && &sel[0] == &enabled[0] &&
		4*len(sel) >= e.p.N() &&
		sort.IntsAreSorted(sel)
}

// stepFused executes one dense synchronous transition in a single sharded
// pass over the packed buffer: each shard reads the rules of its activated
// vertices straight from the maintained ruleOf table (every activated
// vertex has one — the selection is the enabled list, which is exactly the
// set of vertices with a set rule), applies them against the frozen front
// buffer into the back buffer, fills the unfired gaps by word copy, and
// refreshes the decoded shadow — evaluate, select bookkeeping, staging and
// commit collapsed into one pass, with a buffer swap where the general
// path scatters staged words back. The observable execution — selection,
// rules, counters, guard-evaluation accounting (+N from the refreshDense
// rebuild, as on the general dense path), hook order — is bitwise
// identical to the general path; the differential matrix pins this.
func (e *Engine[S]) stepFused(activated []int) (bool, error) {
	n := e.p.N()
	k := len(activated)
	w := e.w
	e.rules = growSlice(e.rules, k)
	e.stNext = growSlice(e.stNext, n*w)
	if k == n {
		// Full firing: selection position i is vertex i, so ApplyFlat's
		// position-indexed output lands verbatim in the back buffer.
		e.forShards(n, func(_, lo, hi int) {
			rules := e.rules[lo:hi]
			copy(rules, e.ruleOf[lo:hi])
			e.fl.ApplyFlat(e.st, w, 0, e.allVerts[lo:hi], rules, e.stNext[lo*w:hi*w], w, 0)
			e.fl.DecodeStates(e.stNext, w, 0, e.allVerts[lo:hi], e.cfg)
		})
	} else {
		// Partial firing: shards still cover the vertex range (so the gap
		// copies partition the buffer); each shard locates its slice of the
		// activated list by binary search, stages its applies at selection
		// positions, then interleaves gap copies and staged words into the
		// back buffer.
		e.nextW = growSlice(e.nextW, k*w)
		e.forShards(n, func(_, lo, hi int) {
			a := sort.SearchInts(activated, lo)
			b := sort.SearchInts(activated, hi)
			sub := activated[a:b]
			rules := e.rules[a:b]
			for j, v := range sub {
				rules[j] = e.ruleOf[v]
			}
			e.fl.ApplyFlat(e.st, w, 0, sub, rules, e.nextW[a*w:b*w], w, 0)
			prev := lo
			for j, v := range sub {
				copy(e.stNext[prev*w:v*w], e.st[prev*w:v*w])
				copy(e.stNext[v*w:(v+1)*w], e.nextW[(a+j)*w:(a+j+1)*w])
				prev = v + 1
			}
			copy(e.stNext[prev*w:hi*w], e.st[prev*w:hi*w])
			e.fl.DecodeStates(e.stNext, w, 0, sub, e.cfg)
		})
	}
	e.st, e.stNext = e.stNext, e.st
	e.steps++
	e.moves += k
	// Same post-commit order as the general path: rebuild, then settle the
	// round against the fresh ruleOf, then fire hooks. refreshDense swaps
	// the enabled buffers but leaves activated's backing array intact.
	e.refreshDense()
	e.settleRound(activated)
	e.fireHooks(StepInfo{Step: e.steps, Activated: activated, Rules: e.rules[:k]})
	return true, nil
}

// evalMoves is the evaluate phase: rules and next states of every selected
// vertex are computed against the frozen pre-state, shard by shard. In
// incremental mode the rules come straight from the maintained ruleOf
// table — no guard re-evaluation at all; otherwise guards are (re-)
// evaluated and counted. Shard errors (a daemon selecting a disabled
// vertex) are merged in shard order, so the reported vertex is
// deterministic.
func (e *Engine[S]) evalMoves() error {
	k := len(e.selected)
	e.rules = growSlice(e.rules, k)
	if e.fl != nil {
		e.nextW = growSlice(e.nextW, k*e.w)
	} else {
		e.next = growSlice(e.next, k)
	}
	if e.loc != nil {
		for i, v := range e.selected {
			r := e.ruleOf[v]
			if r == NoRule {
				return fmt.Errorf("%w: %s selected disabled vertex %d", ErrDaemonSelection, e.d.Name(), v)
			}
			e.rules[i] = r
		}
	} else {
		e.guardEvals += int64(k)
	}
	shards := e.forShards(k, func(sh, lo, hi int) {
		e.shardErrs[sh] = e.evalMoveRange(lo, hi)
	})
	for sh := 0; sh < shards; sh++ {
		if e.shardErrs[sh] != nil {
			return e.shardErrs[sh]
		}
	}
	return nil
}

// evalMoveRange evaluates one contiguous shard of the selection. Rules are
// already filled in incremental mode (evalMoves); otherwise they are
// evaluated here against the frozen pre-state.
func (e *Engine[S]) evalMoveRange(lo, hi int) error {
	vs := e.selected[lo:hi]
	rules := e.rules[lo:hi]
	if e.fl != nil {
		if e.loc == nil {
			e.fl.EnabledRuleFlat(e.st, e.w, 0, vs, rules)
			for i, r := range rules {
				if r == NoRule {
					return fmt.Errorf("%w: %s selected disabled vertex %d", ErrDaemonSelection, e.d.Name(), vs[i])
				}
			}
		}
		e.fl.ApplyFlat(e.st, e.w, 0, vs, rules, e.nextW[lo*e.w:hi*e.w], e.w, 0)
		return nil
	}
	if e.loc == nil {
		for i, v := range vs {
			r, ok := e.p.EnabledRule(e.cfg, v)
			if !ok {
				return fmt.Errorf("%w: %s selected disabled vertex %d", ErrDaemonSelection, e.d.Name(), v)
			}
			rules[i] = r
		}
	}
	for i, v := range vs {
		e.next[lo+i] = e.p.Apply(e.cfg, v, rules[i])
	}
	return nil
}

// commitMoves merges the staged next states into the live configuration —
// and, on the flat backend, refreshes the decoded shadow for the touched
// vertices so cfg stays exactly decode(st). Writes are per-vertex disjoint,
// so large commits shard across workers like the evaluate phase.
func (e *Engine[S]) commitMoves() {
	if e.fl != nil {
		w := e.w
		e.forShards(len(e.selected), func(_, lo, hi int) {
			if w == 1 {
				for i := lo; i < hi; i++ {
					e.st[e.selected[i]] = e.nextW[i]
				}
			} else {
				for i := lo; i < hi; i++ {
					v := e.selected[i]
					copy(e.st[v*w:(v+1)*w], e.nextW[i*w:(i+1)*w])
				}
			}
			e.fl.DecodeStates(e.st, w, 0, e.selected[lo:hi], e.cfg)
		})
		return
	}
	e.forShards(len(e.selected), func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			e.cfg[e.selected[i]] = e.next[i]
		}
	})
}

// cacheLineWords is a 64-byte cache line in int64 words. Shard sizes at or
// above it are rounded up to a multiple, so adjacent shards never write
// the same cache line of ruleOf/nextW/stNext (false sharing); smaller
// explicit shard sizes — tests forcing parallelism on tiny graphs — are
// left exact.
const cacheLineWords = 8

// forShards runs f over contiguous ranges covering [0, k) and returns the
// number of ranges. Work below the shard-size threshold (or with a single
// worker) runs inline; otherwise ranges run on the engine's persistent
// pool — precomputed from the shard index, no per-call goroutines — and
// join before returning. f must write only to disjoint index-addressed
// slots (rules[i], nextW[i*w:], ruleOf[vs[i]], shardErrs[shard]) — the
// shard boundaries depend only on k, the shard size and the worker bound,
// never on timing, so results are identical for every worker count.
func (e *Engine[S]) forShards(k int, f func(shard, lo, hi int)) int {
	if k == 0 {
		return 0
	}
	if e.workers <= 1 || k <= e.shardSize || e.pool == nil {
		f(0, 0, k)
		return 1
	}
	size := e.shardSize
	if s := (k + e.workers - 1) / e.workers; s > size {
		size = s
	}
	if size >= cacheLineWords {
		size = (size + cacheLineWords - 1) &^ (cacheLineWords - 1)
	}
	shards := (k + size - 1) / size
	if shards == 1 {
		f(0, 0, k)
		return 1
	}
	e.pool.run(shards, func(sh int) {
		lo := sh * size
		hi := lo + size
		if hi > k {
			hi = k
		}
		f(sh, lo, hi)
	})
	return shards
}

// growSlice returns buf resized to length k, reallocating only when the
// capacity is insufficient (contents are overwritten by the caller).
func growSlice[T any](buf []T, k int) []T {
	if cap(buf) < k {
		return make([]T, k)
	}
	return buf[:k]
}

// Run executes at most maxSteps transitions, stopping early when until
// (optional) returns true for the current configuration or when a terminal
// configuration is reached. It returns the number of steps executed by
// this call.
func (e *Engine[S]) Run(maxSteps int, until func(Config[S]) bool) (int, error) {
	done := 0
	for done < maxSteps {
		if until != nil && until(e.cfg) {
			return done, nil
		}
		progressed, err := e.Step()
		if err != nil {
			return done, err
		}
		if !progressed {
			return done, nil
		}
		done++
	}
	return done, nil
}

package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
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
	// Dirty lists, in no particular order and without repeats, the
	// vertices whose guards the step re-evaluated: the activated vertices
	// and every vertex whose guard reads one of them. No vertex outside it
	// changed enabledness, nor any predicate confined to its guard
	// read-set. Dirty is nil when the step re-evaluated every guard (a
	// dense rebuild) or none (a full-rescan engine), meaning "any vertex".
	Dirty []int
}

// Clone returns a StepInfo with independently owned Activated, Rules and
// Dirty slices — the copy a hook must take before retaining the info
// beyond its own invocation (see Hook).
func (i StepInfo) Clone() StepInfo {
	out := StepInfo{Step: i.Step}
	if i.Activated != nil {
		out.Activated = append(make([]int, 0, len(i.Activated)), i.Activated...)
	}
	if i.Rules != nil {
		out.Rules = append(make([]Rule, 0, len(i.Rules)), i.Rules...)
	}
	if i.Dirty != nil {
		out.Dirty = append(make([]int, 0, len(i.Dirty)), i.Dirty...)
	}
	return out
}

// Hook observes executed steps.
//
// Aliasing contract: the Activated, Rules and Dirty slices are owned by
// the engine and reused between steps — they are valid only for the duration
// of the hook invocation, and are read-only. A hook that retains the info
// (step logs, deferred analysis) must take StepInfo.Clone; a hook that
// only reads the slices inside its body needs no copy. Hooks run
// synchronously on the engine's step path after the state commit, so they
// observe the post-step configuration by calling Current() — in the hook,
// not before the step (see Current).
type Hook func(StepInfo)

// HookID identifies a hook installed with AddHook, for RemoveHook.
type HookID int

// Engine drives one execution of a protocol under a daemon from a given
// initial configuration. It is deterministic: given the same protocol,
// daemon, initial configuration and seed, it replays the same execution
// (daemon randomness is drawn from the engine's generator, seeded from seed
// at the daemon's first draw) — for every worker count and shard size.
//
// When the protocol declares its guard read-sets (the Local capability),
// the engine maintains the enabled set incrementally: after each step only
// the activated vertices and the vertices that read them are re-evaluated,
// O(Δ·avg-degree) guard evaluations per step instead of O(N). Executions
// are bitwise identical either way — the tracker is exact, not a heuristic
// (the differential tests assert this across every protocol and daemon).
//
// The engine runs on the protocol's Flat capability (see flat.go), which
// every protocol must provide: it packs the configuration into a []int64
// array and evaluates guards and moves with batch kernels — no per-guard
// interface dispatch, and no allocation by the engine in a warm step on
// any path, fused or general, incremental or not (the ZeroAlloc tests; a
// daemon's Select and the hooks may still allocate their own). Each step
// is double-buffered: the evaluate phase computes every next state from
// the frozen packed front buffer (in parallel, contiguous shard by
// contiguous shard, when the selection is large enough), and only after
// all shards join does the commit phase merge the staged states back in
// shard order — which is why executions are identical for every worker count and match
// the sequential reference stepper of the differential tests.
//
// The decoded Config[S] that Current returns is a shadow of the packed
// state, brought up to date when it is read: the dense synchronous step
// only marks it stale, so an execution nobody observes never decodes it.
type Engine[S comparable] struct {
	p   Protocol[S]
	d   Daemon[S]
	cfg Config[S]

	// The daemon's generator, built at the first Select (random) on a
	// LazySource that seeds itself at the first draw: seeding math/rand
	// costs more than many steps, an sd engine never calls Select, and
	// the deterministic daemons (min-id, max-id, round-robin, greedy,
	// rule-priority, Recorded) are handed rng but never draw from it.
	src LazySource
	rng *rand.Rand

	steps int
	moves int

	// Observer pipeline: the AddHook fan-out, invoked in insertion order.
	hooks  []hookEntry
	nextID HookID

	// Round accounting: a round is a minimal execution segment in which
	// every vertex enabled at the segment's start is activated or
	// observed disabled — the standard asynchronous time measure of the
	// self-stabilization literature. A round starts owing its enabled
	// list: owedList, in increasing order (allVerts itself when every
	// vertex is enabled, otherwise a copy in owedBuf). Its first step
	// settles by a sorted merge against the activated list, compacting
	// into owedBuf, never into allVerts; a round that ends there — every
	// synchronous round — never touches owedMark. In incremental mode a
	// round that outlives its first step moves its remainder into
	// owedMark (owedCount vertices marked, owedList unused), and each
	// later step discharges only its activated vertices and the dirty
	// vertices it disabled: O(Δ + |dirty|), since no vertex outside the
	// dirty closure changes enabledness. owedCount is 0 whenever no mark
	// is set, so a new round starts with owedMark clear.
	rounds    int
	owedList  []int
	owedBuf   []int
	owedMark  []bool
	owedCount int

	// Incremental enabled-set maintenance (nil/empty without Local): the
	// influence sets in CSR form, row v = influenceAdj[influenceOff[v]:
	// influenceOff[v+1]] = {v} ∪ {u : v ∈ Neighbors(u)}; ruleOf mirrors the
	// maintained enabled list (NoRule = disabled; otherwise the enabled
	// rule, so steps need no guard re-evaluation at all), dirty/dirtyMark
	// are per-step scratch; dirty is handed to the hooks as StepInfo.Dirty.
	loc          Local
	influenceOff []int
	influenceAdj []int
	ruleOf       []Rule
	dirty        []int
	dirtyMark    []bool

	// Speculative synchronous steps (see stepFused): uni is the
	// protocol's Uniform capability (nil without it) and uniform its
	// declared rule (NoRule without it); ruleAll is the one rule every
	// ruleOf slot held at the last dense refresh, NoRule when the rules
	// were mixed or when the configuration or ruleOf has been rewritten
	// since (load, a sparse refresh, DisableIncremental).
	uni     Uniform
	uniform Rule
	ruleAll Rule

	// Packed state. st is the front buffer — the source of truth; cfg is
	// its decoded shadow, so daemons, hooks and Current() observe the
	// protocol's own state type. The general path decodes the moved
	// vertices at commit; the fused step leaves the whole shadow stale
	// and Current decodes it on the next read.
	fl       Flat[S]
	w        int     // words per vertex
	st       []int64 // packed configuration, vertex-major
	nextW    []int64 // staged next words, indexed by selection position
	stNext   []int64 // back buffer of the fused step (swapped, not copied); a speculated step ticks st in place
	allVerts []int   // identity list (its length is n): batch rescans, and the enabled list when all n are enabled
	allRules []Rule  // rescan scratch
	stale    bool    // cfg lags st; Current decodes it
	sd       bool    // the daemon declares FiresAll: Select is never called

	// Shard-parallel phases (see forShards): workers bounds the fan-out,
	// shardSize the minimum batch per shard, shardErrs the per-shard error
	// slots (merged in shard order for determinism). pool is the persistent
	// worker team the shards run on — either Options.Pool (shared across
	// engines) or a lazily started private pool (owned=true), released by
	// Close or by the runtime cleanup when the engine is collected. An
	// engine of at most one shard never splits work and has no pool.
	workers   int
	shardSize int
	shardErrs []error
	pool      *Pool
	owned     bool
	cleanup   runtime.Cleanup

	// Enabled-list rebuilds (refreshDense, rescan): every shard collects
	// its enabled vertices into its own range of the output buffer
	// collect and records the run in runs[shard] (one slot per worker:
	// the shard count never exceeds it); compactRuns joins them.
	collect []int
	runs    []enabledRun

	// Shard dispatch: forShards names its body by a shardPhase, which
	// runShard switches on, so dispatching a step's shards allocates
	// nothing (a closure literal passed to forShards would escape and be
	// heap-allocated on every call). job is the epoch forShards is handing
	// to the pool; runJob, bound only when the engine has a pool, reads
	// it. activated is the partial-firing fused step's selection, which
	// applyPartialShard reads.
	job       shardJob
	runJob    func(shard int)
	activated []int

	// guardEvals counts the EnabledRule evaluations the engine actually
	// performs (rescans, incremental refreshes, rule lookups, round
	// settlement), batch kernels included vertex by vertex. A speculated
	// synchronous step evaluates no guard and adds nothing. Guard
	// evaluations a daemon performs internally are not included.
	guardEvals int64

	// The enabled list is allVerts when every vertex is enabled, otherwise
	// a prefix of enabledOwn (capacity n). Rebuilds write only into
	// enabledAlt, which never aliases the current list or allVerts (see
	// installEnabled); a sparse refresh that flips few vertices patches
	// enabledOwn in place, copying allVerts into it first when the list
	// was full.
	enabled    []int
	enabledOwn []int
	enabledAlt []int

	// Scratch buffers reused across steps.
	selected   []int
	rules      []Rule
	dirtyRules []Rule
	oneV       [1]int
	oneR       [1]Rule
}

// NewEngine creates an engine executing p under d starting from initial,
// with default Options (GOMAXPROCS shard workers). p must provide the Flat
// capability. The initial configuration is cloned; seed fixes all daemon
// randomness. If p declares the Local capability the engine starts in
// incremental mode; DisableIncremental reverts to full rescans.
func NewEngine[S comparable](p Protocol[S], d Daemon[S], initial Config[S], seed int64) (*Engine[S], error) {
	return NewEngineWith(p, d, initial, seed, Options{})
}

// NewEngineWith is NewEngine with explicit parallelism Options.
// Executions are bitwise identical for every option choice; only the cost
// of producing them changes.
func NewEngineWith[S comparable](p Protocol[S], d Daemon[S], initial Config[S], seed int64, opts Options) (*Engine[S], error) {
	if err := Validate(p, initial); err != nil {
		return nil, err
	}
	fl := FlatOf(p)
	if fl == nil {
		return nil, fmt.Errorf("sim: %s does not provide the Flat capability, which the engine requires", p.Name())
	}
	w := fl.FlatWords()
	if w < 1 {
		return nil, fmt.Errorf("sim: %s flat codec declares %d words per vertex", p.Name(), w)
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
	n := p.N()
	e := &Engine[S]{
		p:          p,
		d:          d,
		fl:         fl,
		w:          w,
		st:         make([]int64, n*w),
		allVerts:   make([]int, n),
		cfg:        initial.Clone(),
		src:        LazySource{seed: seed},
		enabledOwn: make([]int, 0, n),
		sd:         firesAll(d),
		workers:    workers,
		shardSize:  shardSize,
		shardErrs:  make([]error, workers),
		runs:       make([]enabledRun, workers),
	}
	if workers > 1 && opts.Pool != nil {
		e.pool = opts.Pool
	} else if workers > 1 && n > shardSize {
		// A private pool, tied to the engine's lifetime: Close releases
		// it deterministically; the cleanup catches engines that are
		// simply dropped, so parked helper goroutines never outlive the
		// engines that started them. The cleanup closure must not
		// capture e (that would keep the engine reachable forever). No
		// phase covers more than n vertices, so an engine of at most
		// one shard — every small engine of a sweep — runs inline and
		// pays for neither.
		e.pool = NewPool(workers)
		e.owned = true
		e.cleanup = runtime.AddCleanup(e, func(p *Pool) { p.Close() }, e.pool)
	}
	if e.pool != nil {
		e.runJob = e.runShardJob
	}
	for v := range e.allVerts {
		e.allVerts[v] = v
	}
	e.load()
	if l := LocalOf(p); l != nil {
		e.loc = l
		e.influenceOff, e.influenceAdj = InfluenceCSR(p.N(), l)
		e.ruleOf = make([]Rule, p.N())
		e.dirtyMark = make([]bool, p.N())
		e.uniform = UniformOf(p)
		if e.uniform != NoRule {
			e.uni = any(p).(Uniform)
		}
		e.seedEnabled()
	}
	e.startRound()
	return e, nil
}

// seedEnabled performs the one full guard scan incremental mode needs: it
// fills ruleOf and the maintained enabled list from the initial
// configuration. Every later update is a dirty-set refresh.
func (e *Engine[S]) seedEnabled() { e.refreshDense() }

// load packs cfg into st and decodes it back into cfg, shard by shard, so
// the shadow invariant cfg[v] == DecodeState(v, st[v*w:]) holds from the
// first step and again after every SetConfig. ruleOf no longer describes
// the configuration, so the recorded uniform rule is cleared until the
// next dense refresh.
func (e *Engine[S]) load() {
	e.forShards(len(e.allVerts), phaseLoad)
	e.stale = false
	e.ruleAll = NoRule
}

// loadShard is load's shard body: pack and decode back vertices [lo, hi).
func (e *Engine[S]) loadShard(lo, hi int) {
	w := e.w
	for v := lo; v < hi; v++ {
		e.fl.EncodeState(v, e.cfg[v], e.st[v*w:(v+1)*w])
	}
	for v := lo; v < hi; v++ {
		e.cfg[v] = e.fl.DecodeState(v, e.st[v*w:(v+1)*w])
	}
}

// refreshDense re-evaluates every guard with batch kernels and rebuilds
// the enabled list — cheaper than dirty-set bookkeeping once a sizable
// fraction of the vertices fired (the synchronous-daemon regime: no
// influence-set iteration, no mark churn, no list patching). Each shard evaluates
// its guard range and collects its enabled vertices in the same pass
// (collectRun); compactRuns then joins the runs in shard order, so the
// rebuilt list is identical for every worker count. The same pass records
// in ruleAll whether every vertex is enabled with one rule.
func (e *Engine[S]) refreshDense() {
	n := len(e.allVerts)
	e.guardEvals += int64(n)
	e.enabledAlt = growSlice(e.enabledAlt, n)
	e.collect = e.enabledAlt
	shards := e.forShards(n, phaseRefreshFlat)
	e.ruleAll = NoRule
	if shards > 0 {
		e.ruleAll = e.runs[0].rule
		for _, r := range e.runs[1:shards] {
			if r.rule != e.ruleAll {
				e.ruleAll = NoRule
			}
		}
	}
	e.installEnabled(e.compactRuns(shards))
}

// installEnabled makes out, a list just built in enabledAlt (or allVerts),
// the maintained enabled list. A full list is replaced by allVerts, which
// is never written. Otherwise the spare and owned buffers trade places:
// the previous list's backing array becomes the spare and stays intact
// until the next rebuild writes to it, which is what keeps a selection
// aliasing the previous list — the fused synchronous step's activated
// slice — valid through round settlement and the hook pipeline.
func (e *Engine[S]) installEnabled(out []int) {
	if len(out) == len(e.allVerts) {
		e.enabled = e.allVerts
		return
	}
	e.enabledAlt, e.enabledOwn = e.enabledOwn, out[:0]
	e.enabled = out
}

// refreshFlatShard is refreshDense's shard body: evaluate the guards of
// [lo, hi) into ruleOf and collect the enabled ones.
func (e *Engine[S]) refreshFlatShard(sh, lo, hi int) {
	e.fl.EnabledRuleFlat(e.st, e.w, 0, e.allVerts[lo:hi], e.ruleOf[lo:hi])
	e.collectRun(sh, lo, e.ruleOf[lo:hi])
}

// enabledRun is one shard's slice of a rebuilt enabled list: n of the
// shard's vertices enabled, written at collect[lo:lo+n] — or, when full,
// all of them and not written at all (they are allVerts[lo:lo+n]). rule
// is the one rule every vertex of a full run is enabled with, NoRule when
// the run is partial or its rules are mixed.
type enabledRun struct {
	lo, n int
	full  bool
	rule  Rule
}

// collectRun records the shard's run of enabled vertices: when every
// ruleOf[i] is set the run is full and nothing is written; otherwise the
// vertices lo+i with a set rule are written in increasing order to the
// front of the shard's own range collect[lo:]. The store is unconditional
// and only the cursor advances on a set rule, so the loop has no
// data-dependent branch. The scan for an unset rule first runs as a scan
// for the first rule's end, so one pass also tells a uniform run.
func (e *Engine[S]) collectRun(sh, lo int, ruleOf []Rule) {
	r0 := ruleOf[0]
	i := 1
	for i < len(ruleOf) && ruleOf[i] == r0 {
		i++
	}
	switch {
	case i == len(ruleOf) && r0 != NoRule:
		e.runs[sh] = enabledRun{lo: lo, n: len(ruleOf), full: true, rule: r0}
		return
	case r0 != NoRule && !slices.Contains(ruleOf[i:], NoRule):
		e.runs[sh] = enabledRun{lo: lo, n: len(ruleOf), full: true}
		return
	}
	out := e.collect[lo : lo+len(ruleOf)]
	k := 0
	for i, r := range ruleOf {
		out[k] = lo + i
		if r != NoRule {
			k++
		}
	}
	e.runs[sh] = enabledRun{lo: lo, n: k}
}

// compactRuns joins the first shards runs in shard order and returns the
// rebuilt list. It runs inline, after the epoch. When every run is full
// the list is allVerts and nothing is written — the synchronous steady
// state. Otherwise a full run is copied from allVerts and a partial run
// is slid into place unless its predecessors were all full.
func (e *Engine[S]) compactRuns(shards int) []int {
	total := 0
	for _, r := range e.runs[:shards] {
		total += r.n
	}
	if total == len(e.allVerts) {
		return e.allVerts
	}
	at := 0
	for _, r := range e.runs[:shards] {
		switch {
		case r.full:
			copy(e.collect[at:], e.allVerts[r.lo:r.lo+r.n])
		case at != r.lo:
			copy(e.collect[at:], e.collect[r.lo:r.lo+r.n])
		}
		at += r.n
	}
	return e.collect[:at]
}

// rescan recomputes the enabled list with a full sweep of sharded batch
// guard kernels — the non-incremental path. It rebuilds into enabledOwn:
// no selection outlives a rescan, so the current list may be overwritten,
// but allVerts may not.
func (e *Engine[S]) rescan() []int {
	n := len(e.allVerts)
	e.guardEvals += int64(n)
	e.allRules = growSlice(e.allRules, n)
	e.enabledOwn = growSlice(e.enabledOwn, n)
	e.collect = e.enabledOwn
	shards := e.forShards(n, phaseRescan)
	e.enabled = e.compactRuns(shards)
	return e.enabled
}

// rescanShard is rescan's shard body: evaluate the guards of [lo, hi) into
// allRules and collect the enabled ones.
func (e *Engine[S]) rescanShard(sh, lo, hi int) {
	e.fl.EnabledRuleFlat(e.st, e.w, 0, e.allVerts[lo:hi], e.allRules[lo:hi])
	e.collectRun(sh, lo, e.allRules[lo:hi])
}

// startRound charges the current enabled set to the new round. A fully
// enabled configuration owes allVerts itself. No vertex is marked.
func (e *Engine[S]) startRound() {
	enabled := e.Enabled()
	if len(enabled) == len(e.allVerts) {
		e.owedList = e.allVerts
		return
	}
	e.owedBuf = append(e.owedBuf[:0], enabled...)
	e.owedList = e.owedBuf
}

// settleRound discharges owed vertices after a step: a vertex is settled
// once it has been activated or is observed disabled. When all are
// settled, a round completes and the next one is charged.
//
// The first step of a round settles owedList: when all n fired, every
// owed vertex is discharged by firing (a selection is a subset of the
// enabled vertices) — the steady state of a synchronous execution;
// otherwise mergeOwed walks the sorted owed and activated lists once.
// Every synchronous round ends at its first step. An incremental engine
// whose round survives it has marked the remainder in owedMark; from
// then on a step discharges its activated vertices and, of the vertices
// its refresh re-evaluated (dirty; nil after a dense rebuild, which
// re-evaluated all of them — ruleOf is then scanned only while something
// is owed), those now disabled: O(Δ + |dirty|). That is exact: an owed
// vertex was enabled after the previous step, and its guard reads no
// state the step changed unless it is dirty.
func (e *Engine[S]) settleRound(activated, dirty []int) {
	n := len(e.allVerts)
	if e.owedCount == 0 {
		if len(activated) == n {
			e.rounds++
			e.startRound()
		} else {
			e.mergeOwed(activated)
		}
		return
	}
	for _, v := range activated {
		e.discharge(v)
	}
	if dirty != nil {
		for _, u := range dirty {
			if e.ruleOf[u] == NoRule {
				e.discharge(u)
			}
		}
	} else {
		for v := 0; v < n && e.owedCount > 0; v++ {
			if e.ruleOf[v] == NoRule {
				e.discharge(v)
			}
		}
	}
	if e.owedCount == 0 {
		e.rounds++
		e.startRound()
	}
}

// mergeOwed settles owedList by one merge pass against the sorted
// activated list. An incremental engine marks what is left, so later
// steps of the round need not walk it.
func (e *Engine[S]) mergeOwed(activated []int) {
	out := e.owedBuf[:0]
	j := 0
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
		out = append(out, v)
	}
	e.owedBuf = out
	e.owedList = out
	if len(out) == 0 {
		e.rounds++
		e.startRound()
		return
	}
	if e.loc != nil {
		if e.owedMark == nil {
			e.owedMark = make([]bool, len(e.allVerts))
		}
		for _, v := range out {
			e.owedMark[v] = true
		}
		e.owedCount = len(out)
	}
}

// discharge settles v if it is still owed by a marked round.
func (e *Engine[S]) discharge(v int) {
	if e.owedMark[v] {
		e.owedMark[v] = false
		e.owedCount--
	}
}

// vertexEnabled reports v's current enabledness: a free lookup in
// incremental mode, a (counted) guard evaluation otherwise.
func (e *Engine[S]) vertexEnabled(v int) bool {
	if e.loc != nil {
		return e.ruleOf[v] != NoRule
	}
	e.guardEvals++
	e.oneV[0] = v
	e.fl.EnabledRuleFlat(e.st, e.w, 0, e.oneV[:], e.oneR[:])
	return e.oneR[0] != NoRule
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
// must be treated as read-only; use Snapshot for an owned copy. It is the
// decoded shadow of the packed state, and its contents are valid until the
// next Step: the dense synchronous step leaves the shadow stale, and the
// next Current decodes all n states in one pass (allocation-free). Call
// Current again after stepping rather than keeping the slice.
func (e *Engine[S]) Current() Config[S] {
	if e.stale {
		e.fl.DecodeStates(e.st, e.w, 0, e.allVerts, e.cfg)
		e.stale = false
	}
	return e.cfg
}

// Snapshot returns an independent copy of the current configuration.
func (e *Engine[S]) Snapshot() Config[S] { return e.Current().Clone() }

// Steps returns the number of transitions executed so far.
func (e *Engine[S]) Steps() int { return e.steps }

// Moves returns the total number of vertex activations executed so far.
func (e *Engine[S]) Moves() int { return e.moves }

// Rounds returns the number of completed asynchronous rounds: execution
// segments in which every vertex enabled at the segment start fired or
// became disabled. Under the synchronous daemon every step is one round.
func (e *Engine[S]) Rounds() int { return e.rounds }

// GuardEvals returns the number of guard (EnabledRule) evaluations the
// engine has actually performed so far — the hot-path cost measure the
// scaling benchmarks report. Incremental engines spend O(Δ·avg-degree)
// per sparse step and N per dense one; full-rescan engines spend O(N). A
// speculated synchronous step (see stepFused) evaluates none, so the sd
// steady state of a protocol declaring Uniform adds 0 per step.
func (e *Engine[S]) GuardEvals() int64 { return e.guardEvals }

// Incremental reports whether the engine is maintaining the enabled set
// incrementally via the protocol's Local declaration.
func (e *Engine[S]) Incremental() bool { return e.loc != nil }

// DisableIncremental switches the engine to full guard rescans even when
// the protocol declares Local. The execution itself is unaffected — only
// the guard-evaluation cost changes — which is exactly what the
// differential tests exploit to prove the tracker sound. Safe to call at
// any point of an execution: a round whose owed vertices are marked gets
// them back as a sorted owedList, which full-rescan settlement merges.
func (e *Engine[S]) DisableIncremental() {
	if e.owedCount > 0 {
		out := e.owedBuf[:0]
		for v, owed := range e.owedMark {
			if owed {
				out = append(out, v)
			}
		}
		e.owedBuf = out
		e.owedList = out
		e.owedCount = 0
	}
	e.owedMark = nil
	e.loc = nil
	e.influenceOff = nil
	e.influenceAdj = nil
	e.ruleOf = nil
	e.ruleAll = NoRule
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
// seed, injected configurations) for every worker count.
func (e *Engine[S]) SetConfig(c Config[S]) error {
	if err := Validate(e.p, c); err != nil {
		return err
	}
	copy(e.cfg, c)
	e.load()
	if e.loc != nil {
		e.refreshDense()
	}
	if e.owedCount > 0 {
		clear(e.owedMark)
		e.owedCount = 0
	}
	e.startRound()
	return nil
}

// Enabled returns the enabled vertices of the current configuration, in
// increasing order; the slice is owned by the engine and read-only (it is
// the engine's identity list when every vertex is enabled), and valid
// until the next Step or SetConfig, which may overwrite it in place. In
// incremental mode this is the maintained set (no guard evaluations);
// otherwise it is recomputed with a full sweep.
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
// activated changed state and returns the vertices it re-evaluated (nil
// when it re-evaluated all of them). Dense selections — the
// synchronous-daemon regime — skip the bookkeeping and re-scan with batch
// kernels (refreshDense). Otherwise every activated vertex's influence
// set is re-evaluated (batched, and sharded when large). A few flips of
// enabledness (at most
// patchMaxFlips — a central step flips two or three) are patched into the
// sorted enabled list in place, one binary search and one shift each.
// More flips rebuild the list in one pass, since each shift moves about
// half the list: a dense dirty set by a scan of ruleOf, a sparse one by a
// linear merge of the sorted dirty set into the old list. Every strategy
// produces the identical sorted enabled list.
func (e *Engine[S]) refreshEnabled(activated []int) []int {
	n := len(e.allVerts)
	if 4*len(activated) >= n {
		e.refreshDense()
		return nil
	}
	e.ruleAll = NoRule // ruleOf is patched below, not re-collected
	e.dirty = e.dirty[:0]
	for _, v := range activated {
		for _, u := range e.influenceAdj[e.influenceOff[v]:e.influenceOff[v+1]] {
			if !e.dirtyMark[u] {
				e.dirtyMark[u] = true
				e.dirty = append(e.dirty, u)
			}
		}
	}
	k := len(e.dirty)
	e.guardEvals += int64(k)
	e.dirtyRules = growSlice(e.dirtyRules, k)
	e.forShards(k, phaseRefreshDirty)
	// A dirty set no larger than patchMaxFlips cannot flip more, so the
	// flips are counted only past it.
	patch := k <= patchMaxFlips || e.countFlips() <= patchMaxFlips
	for i, u := range e.dirty {
		e.dirtyMark[u] = false
		r := e.dirtyRules[i]
		if patch && (r == NoRule) != (e.ruleOf[u] == NoRule) {
			e.patchEnabled(u, r != NoRule)
		}
		e.ruleOf[u] = r
	}
	if !patch {
		e.rebuildEnabled()
	} else if len(e.enabled) == n {
		e.enabled = e.allVerts
	}
	return e.dirty
}

// patchMaxFlips is the most enabledness flips refreshEnabled patches in
// place. A shift moves about half the enabled list, and a merge walks it
// once at several times the cost per entry of a shift, so a handful of
// shifts is the crossover (BenchmarkStepIncremental for one flip per
// step; a distributed daemon on a random Dijkstra ring, flipping hundreds
// per step, for the merge).
const patchMaxFlips = 8

// countFlips counts the dirty vertices whose fresh rule in dirtyRules
// differs in enabledness from ruleOf.
func (e *Engine[S]) countFlips() int {
	flips := 0
	for i, u := range e.dirty {
		if (e.dirtyRules[i] == NoRule) != (e.ruleOf[u] == NoRule) {
			flips++
		}
	}
	return flips
}

// rebuildEnabled rebuilds the enabled list after a sparse refresh that
// flipped too many vertices to patch; ruleOf is fresh. A dense dirty set
// scans ruleOf. A sparse one is sorted (StepInfo leaves it unordered) and
// merged: the old list's clean entries are kept and the dirty vertices
// spliced back in by their enabledness, one linear pass over two sorted
// inputs.
func (e *Engine[S]) rebuildEnabled() {
	if 4*len(e.dirty) >= len(e.allVerts) {
		out := e.enabledAlt[:0]
		for v, r := range e.ruleOf {
			if r != NoRule {
				out = append(out, v)
			}
		}
		e.installEnabled(out)
		return
	}
	sort.Ints(e.dirty)
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
	e.installEnabled(out)
}

// patchEnabled inserts u into the sorted enabled list, or deletes it,
// in place. A full list is allVerts, which is never written, so it is
// first copied into enabledOwn, whose capacity n bounds every insertion.
func (e *Engine[S]) patchEnabled(u int, enabled bool) {
	if len(e.enabled) == len(e.allVerts) {
		e.enabled = append(e.enabledOwn[:0], e.allVerts...)
	}
	e.enabled = PatchSorted(e.enabled, u, enabled)
}

// PatchSorted inserts u into the increasing list l (insert), or deletes
// it, in place — one binary search and one shift — and returns the
// patched list. u must be absent from l to insert, with cap(l) > len(l),
// and present to delete. It is how the engine's enabled list and the
// lists that hooks maintain over StepInfo.Dirty follow a step.
func PatchSorted(l []int, u int, insert bool) []int {
	i, _ := slices.BinarySearch(l, u)
	if insert {
		l = l[:len(l)+1]
		copy(l[i+1:], l[i:])
		l[i] = u
		return l
	}
	copy(l[i:], l[i+1:])
	return l[:len(l)-1]
}

// refreshDirtyShard is refreshEnabled's shard body: re-evaluate the guards
// of dirty[lo:hi] into dirtyRules.
func (e *Engine[S]) refreshDirtyShard(lo, hi int) {
	e.fl.EnabledRuleFlat(e.st, e.w, 0, e.dirty[lo:hi], e.dirtyRules[lo:hi])
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
	// An sd daemon fires the enabled list without being asked. A dense
	// front with incremental tracking takes the fused path — the regime
	// where the general path would rebuild the enabled list with
	// refreshDense anyway; sparse fronts stay on the general path, whose
	// dirty-set refresh beats a full rescan there.
	if e.sd && e.loc != nil && 4*len(enabled) >= len(e.allVerts) {
		return e.stepFused(enabled)
	}
	if e.sd {
		e.selected = append(e.selected[:0], enabled...)
	} else {
		e.selected = e.d.Select(e.Current(), enabled, e.random(), e.selected[:0])
		if len(e.selected) == 0 {
			return false, fmt.Errorf("%w: empty selection by %s", ErrDaemonSelection, e.d.Name())
		}
	}
	if !sort.IntsAreSorted(e.selected) {
		// Daemons normally select in increasing id order (StepInfo
		// documents it); normalize the rare exception so the first-step
		// merge of round settlement and the hook contract stay valid.
		sort.Ints(e.selected)
	}
	if err := e.evalMoves(); err != nil {
		return false, err
	}
	e.commitMoves()
	e.steps++
	e.moves += len(e.selected)
	var dirty []int
	if e.loc != nil {
		dirty = e.refreshEnabled(e.selected)
	}
	e.settleRound(e.selected, dirty)
	e.fireHooks(StepInfo{Step: e.steps, Activated: e.selected, Rules: e.rules, Dirty: dirty})
	return true, nil
}

// random returns the daemon's generator, building it on first use over
// the engine's LazySource, which seeds itself only at the daemon's first
// draw. Nothing else draws from it, so it yields the stream an eagerly
// seeded rand.New(rand.NewSource(seed)) would.
func (e *Engine[S]) random() *rand.Rand {
	if e.rng == nil {
		e.rng = rand.New(&e.src)
	}
	return e.rng
}

// stepFused executes one dense synchronous transition in a single sharded
// pass over the packed buffer: each shard reads the rules of its activated
// vertices straight from the maintained ruleOf table (every activated
// vertex has one — the selection is the enabled list, which is exactly the
// set of vertices with a set rule), applies them against the frozen front
// buffer into the back buffer and fills the unfired gaps by word copy —
// evaluate, select bookkeeping, staging and commit collapsed into one
// pass, with a buffer swap where the general path scatters staged words
// back. The decoded shadow is only marked stale (Current decodes it on
// read). The refreshDense rebuild is the step's second and last epoch;
// below the shard size both run inline, and a warm step allocates nothing
// (TestFusedStepZeroAlloc, TestFusedPartialStepZeroAlloc).
//
// A full firing from a configuration whose every vertex is enabled with
// the protocol's declared Uniform rule is speculated. Every vertex fires
// that one rule and its move reads only its own record, so the step is
// the protocol's ApplyUniformFlat kernel run over the front buffer in
// place, shard by shard over disjoint ranges: no rule is read from ruleOf,
// the back buffer is neither written nor swapped in. The declaration says
// every vertex is enabled with that rule again, so the rebuild is skipped
// too — ruleOf, the enabled list (allVerts) and ruleAll carry over, and
// the hooks get ruleOf itself as the step's rules. Such a step evaluates
// no guard, so GuardEvals grows by 0 instead of N (the unison-family sd
// steady state). Everything else the execution shows — selection, rules,
// configuration, steps, moves, rounds, hook order — is bitwise identical
// to the general path; the differential matrix, the fixpoint oracle tests
// and the kernel oracle pin this.
func (e *Engine[S]) stepFused(activated []int) (bool, error) {
	n := len(e.allVerts)
	k := len(activated)
	w := e.w
	speculated := k == n && e.uniform != NoRule && e.ruleAll == e.uniform
	if speculated {
		e.forShards(n, phaseApplyUniform)
	} else {
		e.rules = growSlice(e.rules, n)
		e.stNext = growSlice(e.stNext, n*w)
		if k == n {
			// Full firing: selection position i is vertex i, so ruleOf is
			// the step's rule list verbatim and ApplyFlat's position-indexed
			// output lands verbatim in the back buffer. The fired rules are
			// handed to the hooks by swapping ruleOf with the rules buffer —
			// the rebuild below overwrites every ruleOf slot, so no copy is
			// needed.
			e.forShards(n, phaseApplyAll)
			e.rules, e.ruleOf = e.ruleOf, e.rules
		} else {
			// Partial firing: shards still cover the vertex range (so the
			// gap copies partition the buffer); each shard locates its slice
			// of the activated list by binary search, stages its applies at
			// selection positions, then interleaves gap copies and staged
			// words into the back buffer.
			e.nextW = growSlice(e.nextW, k*w)
			e.activated = activated
			e.forShards(n, phaseApplyPartial)
			e.activated = nil
		}
		e.st, e.stNext = e.stNext, e.st
	}
	e.stale = true
	e.steps++
	e.moves += k
	// Same post-commit order as the general path: rebuild, then settle the
	// round against the fresh ruleOf, then fire hooks. refreshDense swaps
	// the enabled buffers but leaves activated's backing array intact.
	rules := e.ruleOf
	if !speculated {
		e.refreshDense()
		rules = e.rules[:k]
	}
	e.settleRound(activated, nil)
	e.fireHooks(StepInfo{Step: e.steps, Activated: activated, Rules: rules})
	return true, nil
}

// applyUniformShard is the speculated shard body of stepFused: tick the
// records of [lo, hi) in place with the protocol's uniform kernel. Shards
// write disjoint ranges, and the kernel reads only the record it
// rewrites, so no shard sees another's output.
func (e *Engine[S]) applyUniformShard(lo, hi int) {
	e.uni.ApplyUniformFlat(e.st[lo*e.w : hi*e.w])
}

// applyAllShard is the full-firing shard body of stepFused when the step
// is not speculated: apply every vertex of [lo, hi) with its maintained
// rule against the frozen front buffer into the back buffer.
func (e *Engine[S]) applyAllShard(lo, hi int) {
	w := e.w
	e.fl.ApplyFlat(e.st, w, 0, e.allVerts[lo:hi], e.ruleOf[lo:hi], e.stNext[lo*w:hi*w], w, 0)
}

// applyPartialShard is the partial-firing shard body of stepFused: apply
// the activated vertices of [lo, hi) against the frozen front buffer and
// fill the back buffer's range with their staged words and the unfired
// gaps' old ones.
func (e *Engine[S]) applyPartialShard(lo, hi int) {
	w := e.w
	a := sort.SearchInts(e.activated, lo)
	b := sort.SearchInts(e.activated, hi)
	sub := e.activated[a:b]
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
	e.nextW = growSlice(e.nextW, k*e.w)
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
	shards := e.forShards(k, phaseEval)
	for sh := 0; sh < shards; sh++ {
		if e.shardErrs[sh] != nil {
			return e.shardErrs[sh]
		}
	}
	return nil
}

// evalShard is evalMoves' shard body: it evaluates one contiguous shard of
// the selection and records its error in shardErrs[sh]. Rules are already
// filled in incremental mode (evalMoves); otherwise they are evaluated here
// against the frozen pre-state.
func (e *Engine[S]) evalShard(sh, lo, hi int) {
	e.shardErrs[sh] = nil
	vs := e.selected[lo:hi]
	rules := e.rules[lo:hi]
	if e.loc == nil {
		e.fl.EnabledRuleFlat(e.st, e.w, 0, vs, rules)
		for i, r := range rules {
			if r == NoRule {
				e.shardErrs[sh] = fmt.Errorf("%w: %s selected disabled vertex %d", ErrDaemonSelection, e.d.Name(), vs[i])
				return
			}
		}
	}
	e.fl.ApplyFlat(e.st, e.w, 0, vs, rules, e.nextW[lo*e.w:hi*e.w], e.w, 0)
}

// commitMoves merges the staged next words into the packed configuration
// and refreshes the decoded shadow for the touched vertices, so cfg stays
// exactly decode(st) unless an earlier fused step left it stale (then
// Current decodes it whole). Writes are per-vertex disjoint, so large
// commits shard across workers like the evaluate phase.
func (e *Engine[S]) commitMoves() { e.forShards(len(e.selected), phaseCommit) }

// commitShard is commitMoves' shard body: scatter the staged words of
// selection positions [lo, hi) and decode their vertices.
func (e *Engine[S]) commitShard(lo, hi int) {
	w := e.w
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
}

// cacheLineWords is a 64-byte cache line in int64 words. Shard sizes at or
// above it are rounded up to a multiple, so adjacent shards never write
// the same cache line of ruleOf/nextW/stNext (false sharing); smaller
// explicit shard sizes — tests forcing parallelism on tiny graphs — are
// left exact.
const cacheLineWords = 8

// forShards runs the shard body of phase ph over contiguous ranges
// covering [0, k) and returns the number of ranges. Work below the shard-size threshold (or with a single
// worker) runs inline; otherwise ranges run on the engine's persistent
// pool — precomputed from the shard index, no per-call goroutines — and
// join before returning. A body must write only to disjoint index-addressed
// slots (rules[i], nextW[i*w:], ruleOf[vs[i]], shardErrs[shard]) — the
// shard boundaries depend only on k, the shard size and the worker bound,
// never on timing, so results are identical for every worker count.
func (e *Engine[S]) forShards(k int, ph shardPhase) int {
	if k == 0 {
		return 0
	}
	if e.workers <= 1 || k <= e.shardSize || e.pool == nil {
		e.runShard(ph, 0, 0, k)
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
		e.runShard(ph, 0, 0, k)
		return 1
	}
	e.job = shardJob{ph: ph, k: k, size: size}
	e.pool.run(shards, e.runJob)
	e.job = shardJob{}
	return shards
}

// shardPhase names the shard body of one forShards epoch.
type shardPhase uint8

const (
	phaseLoad shardPhase = iota
	phaseRefreshFlat
	phaseRescan
	phaseRefreshDirty
	phaseApplyUniform
	phaseApplyAll
	phaseApplyPartial
	phaseEval
	phaseCommit
)

// runShard runs phase ph's body on shard sh, the range [lo, hi).
func (e *Engine[S]) runShard(ph shardPhase, sh, lo, hi int) {
	switch ph {
	case phaseLoad:
		e.loadShard(lo, hi)
	case phaseRefreshFlat:
		e.refreshFlatShard(sh, lo, hi)
	case phaseRescan:
		e.rescanShard(sh, lo, hi)
	case phaseRefreshDirty:
		e.refreshDirtyShard(lo, hi)
	case phaseApplyUniform:
		e.applyUniformShard(lo, hi)
	case phaseApplyAll:
		e.applyAllShard(lo, hi)
	case phaseApplyPartial:
		e.applyPartialShard(lo, hi)
	case phaseEval:
		e.evalShard(sh, lo, hi)
	case phaseCommit:
		e.commitShard(lo, hi)
	}
}

// shardJob is one forShards epoch: the phase and the range geometry that
// runShardJob turns a shard index into.
type shardJob struct {
	ph      shardPhase
	k, size int
}

// runShardJob runs shard sh of the current epoch (the pool's job).
func (e *Engine[S]) runShardJob(sh int) {
	lo := sh * e.job.size
	hi := min(lo+e.job.size, e.job.k)
	e.runShard(e.job.ph, sh, lo, hi)
}

// growSlice returns buf resized to length k, reallocating only when the
// capacity is insufficient (contents are overwritten by the caller). A
// reallocation at least doubles the capacity, so a buffer that follows a
// front growing a few vertices per step — a stabilizing execution's
// selection — is reallocated O(log k) times, not at every new maximum.
func growSlice[T any](buf []T, k int) []T {
	if cap(buf) < k {
		return make([]T, k, max(k, 2*cap(buf)))
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
		if until != nil && until(e.Current()) {
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

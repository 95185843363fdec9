package check

import (
	"errors"

	"specstab/internal/sim"
)

// SyncOptions configures an exhaustive synchronous worst-case measurement.
type SyncOptions[S comparable] struct {
	// Domain returns vertex v's full state domain. Required; unlike
	// Options.Domain it need not be closed under the protocol's rules.
	Domain func(v int) []S
	// Safe is the safety predicate whose last violation defines the
	// stabilization time. Required.
	Safe func(sim.Config[S]) bool
	// Legit (optional) additionally records the worst first-entry time
	// into the legitimacy set.
	Legit func(sim.Config[S]) bool
	// Horizon is the synchronous run length per configuration. Required;
	// pick it from the protocol's proven synchronous bounds plus slack.
	Horizon int
	// MaxConfigs bounds the enumeration (default 2,000,000).
	MaxConfigs int
}

// SyncReport is the outcome of SyncWorst.
type SyncReport[S comparable] struct {
	// Configs is the number of initial configurations enumerated.
	Configs int
	// WorstSteps is the exact worst-case synchronous stabilization time
	// (in steps) over every initial configuration; WorstConfig attains it.
	WorstSteps  int
	WorstConfig sim.Config[S]
	// WorstLegitEntry is the worst first-entry step into Legit (0 when
	// Legit is nil).
	WorstLegitEntry int
}

// Successor-table sentinels: configuration i's synchronous successor is
// succ[i] when that is a configuration index, and otherwise one of these.
const (
	terminal int32 = -1 // no vertex is enabled
	outside  int32 = -2 // the successor lies outside the domain
)

// Predicate bits of the flags table.
const (
	safeBit uint8 = 1 << iota
	legitBit
)

// SyncWorst returns the exact worst-case synchronous stabilization time
// over every configuration of the state space. The synchronous daemon
// admits exactly one execution per initial configuration, so — unlike the
// ud case — following each one is a complete proof search. This is how E8
// certifies Theorem 2 exactly on small instances.
//
// One pass over the dense state index evaluates Safe and Legit on every
// configuration and records its synchronous successor in a table; every
// start's run is then an integer walk of at most Horizon steps through
// that table, with the steps, stopping rule and reported fields of
// sim.MeasureConvergence. The cost is O(configs) protocol and predicate
// evaluations for the table plus O(configs·Horizon) table lookups. The
// domain need not be closed under the rules (min+1 BFS levels can
// transiently exceed any fixed bound): a run whose successor leaves the
// domain continues from there by evaluating the rules and predicates on
// explicit configurations.
func SyncWorst[S comparable](p sim.Protocol[S], opt SyncOptions[S]) (SyncReport[S], error) {
	var rep SyncReport[S]
	if opt.Domain == nil || opt.Safe == nil {
		return rep, errors.New("check: Domain and Safe are required")
	}
	if opt.Horizon <= 0 {
		return rep, errors.New("check: positive Horizon required")
	}
	w, err := newSyncWalker(p, opt)
	if err != nil {
		return rep, err
	}
	worst := int32(-1)
	for i := 0; i < w.sp.total; i++ {
		rep.Configs++
		conv, firstLegit := w.walk(int32(i))
		if conv > rep.WorstSteps {
			rep.WorstSteps = conv
			worst = int32(i)
		}
		if firstLegit > rep.WorstLegitEntry {
			rep.WorstLegitEntry = firstLegit
		}
	}
	if worst >= 0 {
		rep.WorstConfig = make(sim.Config[S], p.N())
		w.sp.decode(worst, rep.WorstConfig, w.digits)
	}
	return rep, nil
}

// syncWalker is one SyncWorst call: the successor and predicate tables
// and the scratch buffers their construction and the free runs reuse.
type syncWalker[S comparable] struct {
	p     sim.Protocol[S]
	opt   SyncOptions[S]
	sp    *space[S]
	succ  []int32
	flags []uint8

	cfg, scratch sim.Config[S]
	digits       []int32
	enabled      []int
	next         []S
}

// newSyncWalker indexes opt's state space and fills the successor and
// predicate tables.
func newSyncWalker[S comparable](p sim.Protocol[S], opt SyncOptions[S]) (*syncWalker[S], error) {
	n := p.N()
	sp, err := newSpace(n, opt.Domain, opt.MaxConfigs)
	if err != nil {
		return nil, err
	}
	w := &syncWalker[S]{
		p: p, opt: opt, sp: sp,
		succ:    make([]int32, sp.total),
		flags:   make([]uint8, sp.total),
		cfg:     make(sim.Config[S], n),
		scratch: make(sim.Config[S], n),
		digits:  make([]int32, n),
	}
	for i := 0; i < sp.total; i++ {
		w.succ[i], w.flags[i] = w.tabulate(int32(i))
	}
	return w, nil
}

// tabulate returns configuration i's synchronous successor and predicate
// flags.
func (w *syncWalker[S]) tabulate(i int32) (int32, uint8) {
	w.sp.decode(i, w.cfg, w.digits)
	flags := w.predicates(w.cfg)
	w.enabled, w.next = fire(w.p, w.cfg, w.enabled, w.next)
	if len(w.enabled) == 0 {
		return terminal, flags
	}
	succ := i
	for j, v := range w.enabled {
		d, ok := w.sp.shift(v, w.digits[v], w.next[j])
		if !ok {
			return outside, flags
		}
		succ += d
	}
	return succ, flags
}

// predicates evaluates Safe and Legit on c as flag bits.
func (w *syncWalker[S]) predicates(c sim.Config[S]) uint8 {
	var f uint8
	if w.opt.Safe(c) {
		f |= safeBit
	}
	if w.opt.Legit != nil && w.opt.Legit(c) {
		f |= legitBit
	}
	return f
}

// run is what sim.MeasureConvergence records of one synchronous run.
type run struct {
	lastUnsafe, firstLegit int
}

// inspect records step, whose configuration has predicate flags f.
func (r *run) inspect(step int, f uint8) {
	if r.firstLegit < 0 && f&legitBit != 0 {
		r.firstLegit = step
	}
	if f&safeBit == 0 {
		r.lastUnsafe = step
	}
}

// walk follows the synchronous run from configuration start, inspecting
// steps 0 through Horizon and stopping early on a terminal configuration,
// and returns its stabilization time (one past the last unsafe step) and
// its first legitimate step (-1 if none).
func (w *syncWalker[S]) walk(start int32) (conv, firstLegit int) {
	r := run{lastUnsafe: -1, firstLegit: -1}
	at := start
	for step := 0; ; step++ {
		r.inspect(step, w.flags[at])
		if step == w.opt.Horizon {
			break
		}
		next := w.succ[at]
		if next == terminal {
			break
		}
		if next == outside {
			w.runFree(at, step, &r)
			break
		}
		at = next
	}
	return r.lastUnsafe + 1, r.firstLegit
}

// runFree continues run r from configuration at, reached at step, whose
// successor leaves the domain: it steps explicit configurations through
// the rest of the horizon.
func (w *syncWalker[S]) runFree(at int32, step int, r *run) {
	cur, nxt := w.cfg, w.scratch
	w.sp.decode(at, cur, w.digits)
	for step < w.opt.Horizon {
		w.enabled, w.next = fire(w.p, cur, w.enabled, w.next)
		if len(w.enabled) == 0 {
			return
		}
		copy(nxt, cur)
		for j, v := range w.enabled {
			nxt[v] = w.next[j]
		}
		cur, nxt = nxt, cur
		step++
		r.inspect(step, w.predicates(cur))
	}
}

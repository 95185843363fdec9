// Package check is an exhaustive model checker for the guarded-command
// protocols of this repository on small instances. Where the measurement
// harness samples schedules, the checker enumerates them all: it computes
// the exact worst-case stabilization time over every execution allowed by
// the unfair distributed daemon (every non-empty subset of enabled vertices
// at every step), verifies closure of the legitimacy set, detects
// deadlocks, and — for the synchronous daemon, which is deterministic —
// measures the exact worst case over every initial configuration.
//
// The non-legitimate region of a self-stabilizing protocol must be acyclic
// (an execution looping outside the legitimacy set would never converge,
// contradicting self-stabilization under ud); the checker's DFS therefore
// either returns exact longest-path values or a concrete cycle witness
// refuting convergence — which is exactly what the E8 ablation elicits
// from Dijkstra's ring with an under-provisioned K < n.
package check

import (
	"errors"
	"fmt"
	"math/bits"

	"specstab/internal/sim"
)

// Options configures an exhaustive check.
type Options[S comparable] struct {
	// Domain returns vertex v's full state domain. Required, and it must
	// be closed under the protocol's rules (every Apply result lies in
	// the domain) — true for clock-valued protocols, matching and
	// Dijkstra rings, but NOT for min+1 BFS, whose levels can transiently
	// exceed any fixed bound (use SyncWorst for such protocols). A rule
	// producing an out-of-domain state panics with a diagnostic.
	Domain func(v int) []S
	// Legit is the legitimacy predicate (DFS leaves). Required.
	Legit func(sim.Config[S]) bool
	// Safe is the problem's safety predicate, checked on legitimate
	// configurations (optional; nil means "always safe").
	Safe func(sim.Config[S]) bool
	// Central restricts the adversary to single-vertex selections (the
	// central daemon cd) instead of all non-empty subsets (ud).
	Central bool
	// CheckClosure additionally verifies that every successor of every
	// legitimate configuration is legitimate.
	CheckClosure bool
	// MaxConfigs bounds the state space; Exhaustive refuses larger
	// instances rather than thrash (default 2,000,000).
	MaxConfigs int
}

// Report is the outcome of an exhaustive check.
type Report[S comparable] struct {
	// Configs is the number of configurations enumerated.
	Configs int
	// LegitCount is how many of them are legitimate.
	LegitCount int
	// UnsafeLegit counts legitimate configurations violating Safe — must
	// be 0 for SSME (Theorem 1's safety argument).
	UnsafeLegit int
	// DeadlockCount counts terminal non-legitimate configurations.
	DeadlockCount int
	// ClosureViolations counts legitimate configurations with a
	// non-legitimate successor (0 when CheckClosure is false).
	ClosureViolations int

	// WorstSteps and WorstMoves are the exact worst-case stabilization
	// time to the legitimacy set over all schedules of the chosen daemon
	// class, maximized over all initial configurations.
	WorstSteps int
	WorstMoves int
	// WorstConfig attains WorstSteps.
	WorstConfig sim.Config[S]

	// NonConverging is true when a cycle exists outside the legitimacy
	// set; CycleWitness is a configuration on such a cycle. When set, the
	// Worst* fields are meaningless.
	NonConverging bool
	CycleWitness  sim.Config[S]
}

// ErrTooLarge reports a state space above Options.MaxConfigs.
var ErrTooLarge = errors.New("check: state space exceeds MaxConfigs")

const defaultMaxConfigs = 2_000_000

// Node colors of the DFS.
const (
	unvisited int8 = iota
	onStack
	done
)

// node is one configuration's entry in the DFS table.
type node struct {
	steps int32
	moves int32
	color int8
	// legit memoises Legit: 0 not yet evaluated, 1 false, 2 true.
	legit int8
	// terminal marks a non-legitimate configuration with no enabled
	// vertex, known once the DFS has expanded it.
	terminal bool
}

// frame is one DFS stack entry: a configuration and, once expanded, the
// indices of its successors in the adversary's selection order. Frames
// are reused with their children slices as the stack shrinks and grows.
type frame struct {
	at       int32
	expanded bool
	children []int32
	next     int
}

// explorer is one Exhaustive call: the state index, the node table and
// the scratch buffers every expansion reuses.
type explorer[S comparable] struct {
	p     sim.Protocol[S]
	opt   Options[S]
	sp    *space[S]
	nodes []node
	stack []frame

	cfg     sim.Config[S] // the configuration being expanded
	digits  []int32
	scratch sim.Config[S] // a successor under the closure check
	enabled []int
	next    []S
	shifts  []int32

	cycle   bool
	witness sim.Config[S]
}

// Exhaustive runs the full check. See the package comment for semantics.
func Exhaustive[S comparable](p sim.Protocol[S], opt Options[S]) (Report[S], error) {
	var rep Report[S]
	if opt.Domain == nil || opt.Legit == nil {
		return rep, errors.New("check: Domain and Legit are required")
	}
	n := p.N()
	if n > 16 {
		return rep, fmt.Errorf("check: %d vertices exceed the subset-enumeration limit of 16", n)
	}
	sp, err := newSpace(n, opt.Domain, opt.MaxConfigs)
	if err != nil {
		return rep, err
	}
	x := &explorer[S]{
		p: p, opt: opt, sp: sp,
		nodes:   make([]node, sp.total),
		cfg:     make(sim.Config[S], n),
		digits:  make([]int32, n),
		scratch: make(sim.Config[S], n),
	}

	cfg := make(sim.Config[S], n)
	digits := make([]int32, n)
	for i := 0; i < sp.total; i++ {
		rep.Configs++
		sp.decode(int32(i), cfg, digits)
		if x.legit(int32(i), cfg) {
			rep.LegitCount++
			if opt.Safe != nil && !opt.Safe(cfg) {
				rep.UnsafeLegit++
			}
			if opt.CheckClosure && !x.closed(cfg) {
				rep.ClosureViolations++
			}
			continue
		}
		steps, moves := x.value(int32(i))
		if x.nodes[i].terminal {
			rep.DeadlockCount++
		}
		if x.cycle {
			rep.NonConverging = true
			rep.CycleWitness = x.witness
			return rep, nil
		}
		if int(steps) > rep.WorstSteps {
			rep.WorstSteps = int(steps)
			rep.WorstConfig = cfg.Clone()
		}
		if int(moves) > rep.WorstMoves {
			rep.WorstMoves = int(moves)
		}
	}
	return rep, nil
}

// legit is the memoised Legit of configuration i, whose decoding is c.
func (x *explorer[S]) legit(i int32, c sim.Config[S]) bool {
	nd := &x.nodes[i]
	if nd.legit == 0 {
		nd.legit = 1
		if x.opt.Legit(c) {
			nd.legit = 2
		}
	}
	return nd.legit == 2
}

// choices is the number of selections the adversary has among k enabled
// vertices: each single vertex under cd, every non-empty subset under ud.
func (x *explorer[S]) choices(k int) int {
	if x.opt.Central {
		return k
	}
	return 1<<k - 1
}

// selection is choice i as a bitmask over the enabled list, in the order
// the DFS visits successors: single vertices in increasing id under cd,
// subsets in increasing mask order under ud.
func (x *explorer[S]) selection(i int) uint32 {
	if x.opt.Central {
		return 1 << i
	}
	return uint32(i + 1)
}

// successors appends to dst the index of every successor of
// configuration at, which must be decoded in x.cfg and x.digits. A rule
// producing a state outside the declared domain is a modelling error
// worth failing loudly on.
func (x *explorer[S]) successors(at int32, dst []int32) []int32 {
	x.enabled, x.next = fire(x.p, x.cfg, x.enabled, x.next)
	x.shifts = x.shifts[:0]
	for j, v := range x.enabled {
		d, ok := x.sp.shift(v, x.digits[v], x.next[j])
		if !ok {
			panic(fmt.Sprintf("check: state %v of vertex %d outside its domain", x.next[j], v))
		}
		x.shifts = append(x.shifts, d)
	}
	for i := 0; i < x.choices(len(x.enabled)); i++ {
		child := at
		for m := x.selection(i); m != 0; m &= m - 1 {
			child += x.shifts[bits.TrailingZeros32(m)]
		}
		dst = append(dst, child)
	}
	return dst
}

// closed reports whether every successor of the legitimate configuration
// c is legitimate. The DFS never expands a legitimate configuration, so a
// successor here may lie outside the domain without error: each is built
// in one scratch configuration and judged by Legit directly.
func (x *explorer[S]) closed(c sim.Config[S]) bool {
	x.enabled, x.next = fire(x.p, c, x.enabled, x.next)
	for i := 0; i < x.choices(len(x.enabled)); i++ {
		copy(x.scratch, c)
		for m := x.selection(i); m != 0; m &= m - 1 {
			j := bits.TrailingZeros32(m)
			x.scratch[x.enabled[j]] = x.next[j]
		}
		if !x.opt.Legit(x.scratch) {
			return false
		}
	}
	return true
}

// push puts configuration at on the DFS stack, reusing a popped frame's
// children slice when one is available.
func (x *explorer[S]) push(at int32) {
	if len(x.stack) < cap(x.stack) {
		x.stack = x.stack[:len(x.stack)+1]
		f := &x.stack[len(x.stack)-1]
		f.at, f.expanded, f.children, f.next = at, false, f.children[:0], 0
		return
	}
	x.stack = append(x.stack, frame{at: at})
}

// value computes the adversary-optimal (steps, moves) to the legitimacy
// set from configuration start, recording the first cycle it meets in
// x.cycle and x.witness. The DFS keeps an explicit stack: worst chains
// exceed comfortable recursion depths on the larger instances.
func (x *explorer[S]) value(start int32) (int32, int32) {
	if nd := &x.nodes[start]; nd.color == done {
		return nd.steps, nd.moves
	}
	x.stack = x.stack[:0]
	x.push(start)
	for len(x.stack) > 0 {
		f := &x.stack[len(x.stack)-1]
		nd := &x.nodes[f.at]
		if !f.expanded {
			if nd.color == done {
				x.stack = x.stack[:len(x.stack)-1]
				continue
			}
			nd.color = onStack
			x.sp.decode(f.at, x.cfg, x.digits)
			if !x.legit(f.at, x.cfg) {
				f.children = x.successors(f.at, f.children)
			}
			if len(f.children) == 0 {
				// Legitimate (a DFS leaf), or terminal and not
				// legitimate: a deadlock.
				nd.terminal = nd.legit != 2
				nd.steps, nd.moves, nd.color = 0, 0, done
				x.stack = x.stack[:len(x.stack)-1]
				continue
			}
			f.expanded = true
		}
		if f.next < len(f.children) {
			child := f.children[f.next]
			cn := &x.nodes[child]
			switch cn.color {
			case onStack:
				if !x.cycle {
					x.cycle = true
					x.witness = make(sim.Config[S], len(x.cfg))
					x.sp.decode(child, x.witness, x.digits)
				}
				f.next++ // skip the cyclic child; the flag is recorded
			case done:
				if s := 1 + cn.steps; s > nd.steps {
					nd.steps = s
				}
				if m := int32(bits.OnesCount32(x.selection(f.next))) + cn.moves; m > nd.moves {
					nd.moves = m
				}
				f.next++
			default:
				x.push(child)
			}
			continue
		}
		// All children resolved; they were folded in as they finished.
		nd.color = done
		x.stack = x.stack[:len(x.stack)-1]
	}
	nd := &x.nodes[start]
	return nd.steps, nd.moves
}

package daemon

import (
	"math/rand"

	"specstab/internal/sim"
)

// Adversarial daemons. The unfair distributed daemon ud is the set of all
// executions, so conv_time(π, ud) is a supremum no finite family of
// schedules can certify from below exactly — except by exhaustive search
// (internal/check does that for tiny instances). For larger instances the
// harness approximates the adversary with greedy look-ahead: among a pool
// of candidate selections, fire the one whose successor configuration
// maximizes a protocol-specific badness potential (e.g. "number of vertices
// still outside Γ₁" for unison, or "moves already forced" heuristics).
// Every schedule so produced is a legal ud execution, so the measured
// stabilization times are sound lower bounds on the worst case and, per
// Theorem 3, must stay under the paper's O(diam·n³) move bound.

// Potential scores how far a configuration is from stabilization; larger
// is worse. Adversaries maximize it.
type Potential[S comparable] func(c sim.Config[S]) float64

// Lookahead is a greedy adversarial daemon: it evaluates candidate
// selections (every singleton, the full enabled set, and SampleSubsets
// random subsets) one step ahead and picks the selection leading to the
// worst successor configuration. Ties favor smaller selections, making the
// daemon maximally unfair (it starves progress wherever the potential
// allows).
type Lookahead[S comparable] struct {
	p         sim.Protocol[S]
	potential Potential[S]
	// SampleSubsets is the number of random non-singleton subsets tried
	// per step in addition to singletons and the full set.
	SampleSubsets int

	next sim.Config[S] // scratch successor buffer
}

// NewLookahead builds the greedy adversary for protocol p.
func NewLookahead[S comparable](p sim.Protocol[S], potential Potential[S], sampleSubsets int) *Lookahead[S] {
	return &Lookahead[S]{p: p, potential: potential, SampleSubsets: sampleSubsets}
}

// Name implements sim.Daemon.
func (d *Lookahead[S]) Name() string { return "ud/greedy-lookahead" }

// Select implements sim.Daemon.
func (d *Lookahead[S]) Select(c sim.Config[S], enabled []int, rng *rand.Rand, dst []int) []int {
	var (
		best      []int
		bestScore float64
		have      bool
	)
	consider := func(sel []int) {
		if len(sel) == 0 {
			return
		}
		score := d.score(c, sel)
		// Prefer strictly better scores; on ties prefer fewer moves
		// (the adversary wastes as little parallelism as possible).
		if !have || score > bestScore || (score == bestScore && len(sel) < len(best)) {
			bestScore = score
			best = append(best[:0:0], sel...)
			have = true
		}
	}
	single := make([]int, 1)
	for _, v := range enabled {
		single[0] = v
		consider(single)
	}
	if len(enabled) > 1 {
		consider(enabled)
		subset := make([]int, 0, len(enabled))
		for i := 0; i < d.SampleSubsets; i++ {
			subset = subset[:0]
			for _, v := range enabled {
				if rng.Intn(2) == 0 {
					subset = append(subset, v)
				}
			}
			consider(subset)
		}
	}
	return append(dst, best...)
}

// score computes the potential of the successor of c under selection sel.
func (d *Lookahead[S]) score(c sim.Config[S], sel []int) float64 {
	if cap(d.next) < len(c) {
		d.next = make(sim.Config[S], len(c))
	}
	d.next = d.next[:len(c)]
	copy(d.next, c)
	for _, v := range sel {
		r, ok := d.p.EnabledRule(c, v)
		if !ok {
			continue
		}
		d.next[v] = d.p.Apply(c, v, r)
	}
	return d.potential(d.next)
}

var _ sim.Daemon[int] = (*Lookahead[int])(nil)

// NewRulePriorityCentral returns a central daemon that always fires the
// enabled vertex whose enabled rule has the smallest priority value
// (ties broken toward the smallest id). Rules missing from the map rank
// last. Rule-priority schedules are the natural shape of several published
// worst cases — e.g. the Θ(m) propose/abandon churn of MMPT matching needs
// every seduction to land before the target's marriage fires.
func NewRulePriorityCentral[S comparable](p sim.Protocol[S], priority map[sim.Rule]int) *Central[S] {
	return NewCentral("rule-priority", func(c sim.Config[S], enabled []int, _ *rand.Rand) int {
		bestIdx := 0
		bestPrio := int(^uint(0) >> 1)
		for i, v := range enabled {
			r, ok := p.EnabledRule(c, v)
			if !ok {
				continue
			}
			prio, known := priority[r]
			if !known {
				prio = int(^uint(0)>>1) - 1
			}
			if prio < bestPrio {
				bestPrio = prio
				bestIdx = i
			}
		}
		return bestIdx
	})
}

// NewGreedyCentral returns a central daemon that fires the single enabled
// vertex whose move leads to the worst successor configuration — the
// single-move restriction of Lookahead, useful when move complexity (not
// step complexity) is the measured quantity.
func NewGreedyCentral[S comparable](p sim.Protocol[S], potential Potential[S]) *Central[S] {
	next := make(sim.Config[S], 0)
	return NewCentral("greedy", func(c sim.Config[S], enabled []int, _ *rand.Rand) int {
		bestIdx := 0
		var bestScore float64
		for i, v := range enabled {
			if cap(next) < len(c) {
				next = make(sim.Config[S], len(c))
			}
			next = next[:len(c)]
			copy(next, c)
			r, ok := p.EnabledRule(c, v)
			if !ok {
				continue
			}
			next[v] = p.Apply(c, v, r)
			score := potential(next)
			if i == 0 || score > bestScore {
				bestScore = score
				bestIdx = i
			}
		}
		return bestIdx
	})
}

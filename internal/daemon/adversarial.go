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

// Potential is a protocol-specific badness measure given by its per-vertex
// term: the potential of a configuration c is Σ_v Term(c, v), larger is
// worse, and the greedy adversaries maximize it. Term(c, v) may read only
// c[v] and the states sim.LocalOf(p).Neighbors(v) lists (any state, when
// p declares no locality). A move of u can then change only the terms of
// the vertices u's influence row lists (sim.InfluenceCSR), so an adversary
// scores a candidate selection by re-evaluating those terms alone. Terms
// are integers, which makes these deltas exact: two candidates compare as
// their successors' whole potentials do, ties included.
type Potential[S comparable] func(c sim.Config[S], v int) int64

// moveScorer scores candidate selections for the greedy adversaries.
// begin copies c once into next and computes the successor state of every
// enabled vertex; score then applies a candidate's moves to next, sums
// Term(next, u) − Term(c, u) over the union of the movers' influence rows
// and undoes the moves. Term(c, u) is cached for the Select. A candidate
// is a list of positions in the enabled list.
type moveScorer[S comparable] struct {
	p    sim.Protocol[S]
	term Potential[S]

	off, adj []int // influence rows, built at the first Select

	next sim.Config[S] // c with the current candidate's moves applied
	succ []S           // succ[i]: enabled[i]'s state after its move
	ok   []bool        // ok[i]: enabled[i] has an enabled rule

	// base[u] is Term(c, u) where baseAt[u] == epoch (one epoch per
	// Select); u is already summed for the current candidate where
	// seenAt[u] == cand.
	base        []int64
	baseAt      []uint32
	seenAt      []uint32
	epoch, cand uint32
	one         [1]int
}

// begin prepares the scorer for the candidates of one Select.
func (s *moveScorer[S]) begin(c sim.Config[S], enabled []int) {
	if s.off == nil {
		n := s.p.N()
		s.off, s.adj = sim.InfluenceCSR(n, sim.LocalOf(s.p))
		s.base = make([]int64, n)
		s.baseAt = make([]uint32, n)
		s.seenAt = make([]uint32, n)
	}
	s.next = append(s.next[:0], c...)
	s.succ, s.ok = s.succ[:0], s.ok[:0]
	for _, v := range enabled {
		var next S
		r, ok := s.p.EnabledRule(c, v)
		if ok {
			next = s.p.Apply(c, v, r)
		}
		s.succ = append(s.succ, next)
		s.ok = append(s.ok, ok)
	}
	s.epoch = advance(s.epoch, s.baseAt)
}

// score returns the potential of c's successor under the moves of the
// enabled positions sel, minus the potential of c.
func (s *moveScorer[S]) score(c sim.Config[S], enabled, sel []int) int64 {
	for _, i := range sel {
		if s.ok[i] {
			s.next[enabled[i]] = s.succ[i]
		}
	}
	s.cand = advance(s.cand, s.seenAt)
	var delta int64
	for _, i := range sel {
		v := enabled[i]
		for _, u := range s.adj[s.off[v]:s.off[v+1]] {
			if s.seenAt[u] == s.cand {
				continue
			}
			s.seenAt[u] = s.cand
			if s.baseAt[u] != s.epoch {
				s.base[u] = s.term(c, u)
				s.baseAt[u] = s.epoch
			}
			delta += s.term(s.next, u) - s.base[u]
		}
	}
	for _, i := range sel {
		v := enabled[i]
		s.next[v] = c[v]
	}
	return delta
}

// advance returns the stamp after cur, clearing marks when it wraps so
// that no stale mark can equal a new stamp.
func advance(cur uint32, marks []uint32) uint32 {
	cur++
	if cur == 0 {
		clear(marks)
		cur = 1
	}
	return cur
}

// Lookahead is a greedy adversarial daemon: it evaluates candidate
// selections (every singleton, the full enabled set, and SampleSubsets
// random subsets) one step ahead and picks the selection leading to the
// worst successor configuration. Ties favor smaller selections, making the
// daemon maximally unfair (it starves progress wherever the potential
// allows).
type Lookahead[S comparable] struct {
	// SampleSubsets is the number of random non-singleton subsets tried
	// per step in addition to singletons and the full set.
	SampleSubsets int

	s      moveScorer[S]
	all    []int // identity positions: the full enabled set
	subset []int // a sampled candidate
	best   []int // the best candidate so far
}

// NewLookahead builds the greedy adversary for protocol p.
func NewLookahead[S comparable](p sim.Protocol[S], potential Potential[S], sampleSubsets int) *Lookahead[S] {
	return &Lookahead[S]{SampleSubsets: sampleSubsets, s: moveScorer[S]{p: p, term: potential}}
}

// Name implements sim.Daemon.
func (d *Lookahead[S]) Name() string { return "ud/greedy-lookahead" }

// Select implements sim.Daemon.
func (d *Lookahead[S]) Select(c sim.Config[S], enabled []int, rng *rand.Rand, dst []int) []int {
	d.s.begin(c, enabled)
	var (
		bestScore int64
		have      bool
	)
	d.best = d.best[:0]
	consider := func(sel []int) {
		if len(sel) == 0 {
			return
		}
		score := d.s.score(c, enabled, sel)
		// Prefer strictly better scores; on ties prefer fewer moves
		// (the adversary wastes as little parallelism as possible).
		if !have || score > bestScore || (score == bestScore && len(sel) < len(d.best)) {
			bestScore = score
			d.best = append(d.best[:0], sel...)
			have = true
		}
	}
	for i := range enabled {
		d.s.one[0] = i
		consider(d.s.one[:])
	}
	if len(enabled) > 1 {
		d.all = d.all[:0]
		for i := range enabled {
			d.all = append(d.all, i)
		}
		consider(d.all)
		for k := 0; k < d.SampleSubsets; k++ {
			d.subset = d.subset[:0]
			for i := range enabled {
				if rng.Intn(2) == 0 {
					d.subset = append(d.subset, i)
				}
			}
			consider(d.subset)
		}
	}
	for _, i := range d.best {
		dst = append(dst, enabled[i])
	}
	return dst
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
// step complexity) is the measured quantity. Ties go to the first such
// vertex in the enabled list.
func NewGreedyCentral[S comparable](p sim.Protocol[S], potential Potential[S]) *Central[S] {
	s := &moveScorer[S]{p: p, term: potential}
	return NewCentral("greedy", func(c sim.Config[S], enabled []int, _ *rand.Rand) int {
		s.begin(c, enabled)
		bestIdx := 0
		var (
			bestScore int64
			have      bool
		)
		for i := range enabled {
			if !s.ok[i] {
				continue
			}
			s.one[0] = i
			if score := s.score(c, enabled, s.one[:]); !have || score > bestScore {
				bestScore, bestIdx, have = score, i, true
			}
		}
		return bestIdx
	})
}

// Package daemon implements the adversaries (daemons) of Definitions 1–2:
// the synchronous daemon sd, central daemons cd under several scheduling
// policies, probabilistic distributed daemons, and greedy look-ahead
// adversaries used to approximate the unfair distributed daemon ud from
// below when measuring worst-case stabilization times.
//
// The partial order of Definition 2 ("d′ more powerful than d" iff every
// execution allowed by d is allowed by d′") is reflected here structurally:
// every daemon in this package selects a non-empty subset of the enabled
// vertices, hence every execution any of them produces is allowed by ud —
// they are all ≺ ud, and measuring under them lower-bounds conv_time(π, ud).
// sd is the deterministic daemon selecting all enabled vertices; cd selects
// exactly one.
//
// The greedy adversaries (NewGreedyCentral, Lookahead) maximize a
// Potential, given as a per-vertex integer term Term(c, v) whose sum over
// the vertices is the configuration's badness. The term's locality is a
// contract, as sim.Local's read-set is for guards: Term(c, v) may read only
// c[v] and the states sim.LocalOf(p).Neighbors(v) lists (any state when p
// declares no locality). The adversaries rely on it to score a candidate
// selection by the change in the terms of the vertices whose influence row
// lists a mover (sim.InfluenceCSR), not by rescoring the whole successor
// configuration; a term that reads further silently changes their choices.
package daemon

import (
	"fmt"
	"math/rand"

	"specstab/internal/sim"
)

// Synchronous is the synchronous daemon sd: every enabled vertex fires at
// every step. It is deterministic, so a protocol has exactly one
// synchronous execution per initial configuration — the fact both Theorem 2
// and the Section 5 lower bound exploit.
type Synchronous[S comparable] struct{}

// NewSynchronous returns the synchronous daemon.
func NewSynchronous[S comparable]() Synchronous[S] { return Synchronous[S]{} }

// Name implements sim.Daemon.
func (Synchronous[S]) Name() string { return "sd" }

// Select implements sim.Daemon: all enabled vertices fire.
func (Synchronous[S]) Select(_ sim.Config[S], enabled []int, _ *rand.Rand, dst []int) []int {
	return append(dst, enabled...)
}

// FiresAllEnabled implements sim.FiresAll: the engine fires the enabled
// list without calling Select.
func (Synchronous[S]) FiresAllEnabled() bool { return true }

var (
	_ sim.Daemon[int] = Synchronous[int]{}
	_ sim.FiresAll    = Synchronous[int]{}
)

// Chooser picks one vertex index out of a non-empty enabled list for a
// central daemon.
type Chooser[S comparable] func(c sim.Config[S], enabled []int, rng *rand.Rand) int

// Central is a central daemon cd: exactly one enabled vertex fires per
// step. The Chooser fixes the scheduling policy; since every choice
// sequence is a ud-execution, adversarial choosers are the main tool for
// probing worst-case move complexities (Theorem 3, Section 3 catalogue).
type Central[S comparable] struct {
	name   string
	choose Chooser[S]
}

// NewCentral builds a central daemon with an arbitrary policy.
func NewCentral[S comparable](name string, choose Chooser[S]) *Central[S] {
	return &Central[S]{name: name, choose: choose}
}

// Name implements sim.Daemon.
func (d *Central[S]) Name() string { return "cd/" + d.name }

// Select implements sim.Daemon.
func (d *Central[S]) Select(c sim.Config[S], enabled []int, rng *rand.Rand, dst []int) []int {
	return append(dst, enabled[d.choose(c, enabled, rng)])
}

var _ sim.Daemon[int] = (*Central[int])(nil)

// NewRandomCentral returns cd with uniformly random choices.
func NewRandomCentral[S comparable]() *Central[S] {
	return NewCentral("random", func(_ sim.Config[S], enabled []int, rng *rand.Rand) int {
		return rng.Intn(len(enabled))
	})
}

// NewMinIDCentral returns cd always activating the smallest enabled id.
func NewMinIDCentral[S comparable]() *Central[S] {
	return NewCentral("min-id", func(_ sim.Config[S], _ []int, _ *rand.Rand) int {
		return 0
	})
}

// NewMaxIDCentral returns cd always activating the largest enabled id.
func NewMaxIDCentral[S comparable]() *Central[S] {
	return NewCentral("max-id", func(_ sim.Config[S], enabled []int, _ *rand.Rand) int {
		return len(enabled) - 1
	})
}

// RoundRobin is a central daemon cycling fairly through vertex ids: at each
// step it fires the first enabled vertex strictly after the previously
// activated one (in circular id order). It is a weakly fair instance of cd.
type RoundRobin[S comparable] struct {
	n    int
	last int
}

// NewRoundRobin returns a round-robin central daemon for n vertices.
func NewRoundRobin[S comparable](n int) *RoundRobin[S] {
	return &RoundRobin[S]{n: n, last: n - 1}
}

// Name implements sim.Daemon.
func (d *RoundRobin[S]) Name() string { return "cd/round-robin" }

// Select implements sim.Daemon.
func (d *RoundRobin[S]) Select(_ sim.Config[S], enabled []int, _ *rand.Rand, dst []int) []int {
	// enabled is sorted; find first id > last, wrapping around.
	for _, v := range enabled {
		if v > d.last {
			d.last = v
			return append(dst, v)
		}
	}
	d.last = enabled[0]
	return append(dst, enabled[0])
}

var _ sim.Daemon[int] = (*RoundRobin[int])(nil)

// Distributed is the probabilistic distributed daemon: each enabled vertex
// fires independently with probability P; when the coin flips leave the
// selection empty, one enabled vertex is drawn uniformly so that the
// selection is non-empty as the model requires. P=1 coincides with sd.
type Distributed[S comparable] struct {
	// P is the per-vertex activation probability in (0, 1].
	P float64
}

// NewDistributed returns the p-distributed daemon.
func NewDistributed[S comparable](p float64) Distributed[S] {
	if p <= 0 || p > 1 {
		panic(fmt.Sprintf("daemon: distributed activation probability %v outside (0,1]", p))
	}
	return Distributed[S]{P: p}
}

// Name implements sim.Daemon.
func (d Distributed[S]) Name() string { return fmt.Sprintf("ud/distributed-p%.2f", d.P) }

// Select implements sim.Daemon.
func (d Distributed[S]) Select(_ sim.Config[S], enabled []int, rng *rand.Rand, dst []int) []int {
	out := dst
	for _, v := range enabled {
		if rng.Float64() < d.P {
			out = append(out, v)
		}
	}
	if len(out) == len(dst) {
		out = append(out, enabled[rng.Intn(len(enabled))])
	}
	return out
}

var _ sim.Daemon[int] = Distributed[int]{}

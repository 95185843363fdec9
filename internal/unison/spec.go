package unison

import "specstab/internal/sim"

// Specification 2 (spec_AU): safety is membership in Γ₁ for every
// configuration of the execution; liveness is that every register is
// incremented infinitely often. This file provides the Γ₁ predicate, the
// worst-case horizons from the literature the paper cites, and the
// adversarial potential used by the unfair-daemon experiments.

// LocallyLegitimate reports whether v satisfies its share of Γ₁: its clock
// and all neighbor clocks are correct values with drift at most 1.
func (p *Protocol) LocallyLegitimate(c sim.Config[int], v int) bool {
	if !p.x.InStab(c[v]) {
		return false
	}
	for _, u := range p.g.Neighbors(v) {
		if !p.x.InStab(c[u]) || p.x.DK(c[v], c[u]) > 1 {
			return false
		}
	}
	return true
}

// Legitimate reports c ∈ Γ₁: every clock value is correct and every edge
// has drift at most 1. From any configuration of Γ₁, all clocks are within
// d_K-distance diam(g) of each other (the observation Theorem 1 builds on).
func (p *Protocol) Legitimate(c sim.Config[int]) bool {
	for v := 0; v < p.g.N(); v++ {
		if !p.x.InStab(c[v]) {
			return false
		}
		for _, u := range p.g.Neighbors(v) {
			if u > v && p.x.DK(c[v], c[u]) > 1 {
				return false
			}
		}
	}
	return true
}

// SyncHorizon is the synchronous stabilization bound of Boulinier et al.
// (Algorithmica 2008) the paper quotes in Case 3 of Theorem 2's proof:
// unison reaches Γ₁ within α + lcp(g) + diam(g) synchronous steps.
func (p *Protocol) SyncHorizon() int {
	return p.x.Alpha + p.g.LCPBound() + p.g.Diameter()
}

// UnfairHorizonMoves is the move bound of Devismes–Petit (TADDS 2012) the
// paper quotes for Theorem 3: unison reaches Γ₁ within
// 2·diam·n³ + (α+1)·n² + (α − 2·diam)·n moves under ud.
func (p *Protocol) UnfairHorizonMoves() int {
	n, d, a := p.g.N(), p.g.Diameter(), p.x.Alpha
	return 2*d*n*n*n + (a+1)*n*n + (a-2*d)*n
}

// DisorderPotential is v's term of how far c is from Γ₁, for the greedy
// adversarial daemons (a daemon.Potential): a locally illegitimate vertex
// weighs heavily, and a deep tail value weighs by its remaining climb, so
// the adversary prefers schedules that spread resets and keep tails low.
// It reads c[v] and v's neighbors, the read-set Neighbors declares.
func (p *Protocol) DisorderPotential(c sim.Config[int], v int) int64 {
	var term int64
	if !p.LocallyLegitimate(c, v) {
		term = 1000
	}
	if c[v] < 0 {
		term -= int64(c[v])
	}
	return term
}

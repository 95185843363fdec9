// Package core implements SSME (Speculatively Stabilizing Mutual
// Exclusion), the protocol of Section 4 and Algorithm 1 of Dubois &
// Guerraoui (PODC 2013).
//
// SSME runs the self-stabilizing asynchronous unison of internal/unison on
// the bounded clock cherry(α, K) with the paper's parameters
//
//	α = n
//	K = (2n − 1)·(diam(g) + 1) + 2
//
// and grants the privilege to vertex v exactly when its register holds the
// value
//
//	privileged_v ≡ (r_v = 2n + 2·diam(g)·id_v).
//
// The clock is sized so that inside the unison legitimacy set Γ₁ — where
// any two registers are within d_K-distance diam(g) of each other — no two
// distinct privilege values can be held simultaneously, which yields the
// safety of mutual exclusion; unison's liveness makes every vertex's clock
// sweep the whole ring, so every vertex is privileged infinitely often.
//
// SSME is self-stabilizing under the unfair distributed daemon (Theorem 1),
// stabilizes within ⌈diam(g)/2⌉ steps under the synchronous daemon
// (Theorem 2, optimal by Theorem 4) and within O(diam(g)·n³) moves under
// the unfair daemon (Theorem 3). This package exposes those bounds, the
// spec_ME checkers and the adversarial initial configurations that attain
// the synchronous bound exactly.
package core

import (
	"fmt"
	"math/rand"

	"specstab/internal/clock"
	"specstab/internal/graph"
	"specstab/internal/sim"
	"specstab/internal/unison"
)

// Rule identifiers are unison's: SSME's moves are exactly unison's moves —
// the privilege predicate "does not interfere with the protocol".
const (
	RuleNA = unison.RuleNA
	RuleCA = unison.RuleCA
	RuleRA = unison.RuleRA
)

// Protocol is SSME bound to a communication graph. Vertex ids double as
// the process identities ID = {0, …, n−1} the paper assumes (mutual
// exclusion has no deterministic anonymous solution, Burns & Pachl).
type Protocol struct {
	sim.IntWord // packing half of the flat codec (see flat.go)

	uni *unison.Protocol
	g   *graph.Graph
	x   clock.Clock

	// n, 2n and 2·diam(g), fixed at New: the privilege predicate reads
	// them once per vertex.
	n, twoN, twoDiam int
}

// Params returns the paper's clock parameters for g:
// cherry(n, (2n−1)(diam(g)+1)+2).
func Params(g *graph.Graph) clock.Clock {
	n, d := g.N(), g.Diameter()
	return clock.MustNew(n, (2*n-1)*(d+1)+2)
}

// New builds SSME on g with the paper's parameters. The unison parameter
// conditions hold by construction (α = n ≥ hole(g)−2 and K > n ≥ cyclo(g)),
// so the only error path is a degenerate graph.
func New(g *graph.Graph) (*Protocol, error) {
	x := Params(g)
	uni, err := unison.New(g, x)
	if err != nil {
		return nil, fmt.Errorf("core: building SSME on %s: %w", g.Name(), err)
	}
	n := g.N()
	return &Protocol{uni: uni, g: g, x: x, n: n, twoN: 2 * n, twoDiam: 2 * g.Diameter()}, nil
}

// MustNew is New that panics on error (generator/test use).
func MustNew(g *graph.Graph) *Protocol {
	p, err := New(g)
	if err != nil {
		panic(err)
	}
	return p
}

// Graph returns the communication graph.
func (p *Protocol) Graph() *graph.Graph { return p.g }

// Clock returns the bounded clock X = (cherry(n, (2n−1)(diam+1)+2), φ).
func (p *Protocol) Clock() clock.Clock { return p.x }

// Unison returns the underlying asynchronous unison protocol.
func (p *Protocol) Unison() *unison.Protocol { return p.uni }

// Name implements sim.Protocol.
func (p *Protocol) Name() string { return fmt.Sprintf("SSME@%s", p.g.Name()) }

// N implements sim.Protocol.
func (p *Protocol) N() int { return p.n }

// EnabledRule implements sim.Protocol by delegating to unison: the guards
// of Algorithm 1 are exactly unison's guards.
func (p *Protocol) EnabledRule(c sim.Config[int], v int) (sim.Rule, bool) {
	return p.uni.EnabledRule(c, v)
}

// Apply implements sim.Protocol by delegating to unison.
func (p *Protocol) Apply(c sim.Config[int], v int, r sim.Rule) int {
	return p.uni.Apply(c, v, r)
}

// RandomState implements sim.Protocol: any cherry value (transient faults
// may corrupt registers arbitrarily).
func (p *Protocol) RandomState(v int, rng *rand.Rand) int { return p.uni.RandomState(v, rng) }

// RuleName implements sim.Protocol.
func (p *Protocol) RuleName(r sim.Rule) string { return p.uni.RuleName(r) }

var _ sim.Protocol[int] = (*Protocol)(nil)

// Neighbors implements sim.Local by delegating to unison: SSME's guards
// are unison's guards, so its read-sets are unison's read-sets.
func (p *Protocol) Neighbors(v int) []int { return p.uni.Neighbors(v) }

var _ sim.Local = (*Protocol)(nil)

// PrivilegeValue returns the unique clock value at which vertex v is
// privileged: 2n + 2·diam(g)·id_v. Consecutive identities are 2·diam(g)
// apart on the ring and the wrap-around gap (from id n−1 back to id 0) is
// 2n + diam(g) + 1, so any two privilege values are at d_K-distance
// strictly greater than diam(g) — the property Theorem 1's safety argument
// uses.
func (p *Protocol) PrivilegeValue(v int) int {
	return p.twoN + p.twoDiam*v
}

// Privileged is the paper's predicate privileged_v ≡ (r_v = 2n + 2·diam·id_v).
func (p *Protocol) Privileged(c sim.Config[int], v int) bool {
	return c[v] == p.PrivilegeValue(v)
}

// PrivilegedSet returns all privileged vertices of c in increasing order.
func (p *Protocol) PrivilegedSet(c sim.Config[int]) []int {
	var out []int
	for v := 0; v < p.n; v++ {
		if p.Privileged(c, v) {
			out = append(out, v)
		}
	}
	return out
}

// PrivilegedCount returns |PrivilegedSet(c)| without allocating.
func (p *Protocol) PrivilegedCount(c sim.Config[int]) int {
	count := 0
	for v := range c[:p.n] {
		if p.Privileged(c, v) {
			count++
		}
	}
	return count
}

// SafeME is the safety predicate of Specification 1: at most one vertex is
// privileged in the configuration.
func (p *Protocol) SafeME(c sim.Config[int]) bool { return p.PrivilegedCount(c) <= 1 }

// Legitimate reports c ∈ Γ₁ for the underlying unison. Theorem 1: every
// configuration of Γ₁ satisfies the safety of spec_ME, and Γ₁ is closed, so
// first entry into Γ₁ is an upper bound on the stabilization point of any
// execution.
func (p *Protocol) Legitimate(c sim.Config[int]) bool { return p.uni.Legitimate(c) }

// DisorderPotential forwards unison's adversarial potential term.
func (p *Protocol) DisorderPotential(c sim.Config[int], v int) int64 {
	return p.uni.DisorderPotential(c, v)
}

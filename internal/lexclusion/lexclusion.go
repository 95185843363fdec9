// Package lexclusion extends the paper's construction to a second
// classical problem, as its conclusion invites ("apply our new notion of
// speculative stabilization to other classical problems"): self-stabilizing
// ℓ-exclusion — at most ℓ processes may hold the resource simultaneously,
// and every process holds it infinitely often.
//
// The construction is the paper's own, with one twist: identities are
// bucketed into g = ⌈n/ℓ⌉ privilege groups of at most ℓ members, and the
// privilege values of distinct groups are spread 2·diam(g) apart on a
// cherry clock sized for g groups:
//
//	α = n,  K = 2n + diam·(2g−1) + 1,
//	privileged(v) ≡ r_v = 2n + 2·diam·⌊id_v/ℓ⌋,
//
// which keeps every privilege value inside stabX with the same 2n offset
// the paper's zero-island argument uses, pairwise group separation 2·diam
// and wrap-around gap diam+1+2n > diam. For g = n (ℓ = 1) the formula is
// algebraically identical to the paper's K = (2n−1)(diam+1)+2.
//
// Inside unison's Γ₁ all clocks sit within d_K-distance diam of each
// other while distinct group values sit strictly further apart, so only
// one group — hence at most ℓ processes — can be privileged at a time;
// unison's liveness rotates the privilege through all groups forever.
// ℓ = 1 degenerates to SSME exactly.
package lexclusion

import (
	"fmt"
	"math/rand"

	"specstab/internal/clock"
	"specstab/internal/graph"
	"specstab/internal/sim"
	"specstab/internal/unison"
)

// Protocol is the ℓ-exclusion protocol bound to a graph.
type Protocol struct {
	sim.IntWord // packing half of the flat codec (see flat.go)

	uni *unison.Protocol
	g   *graph.Graph
	x   clock.Clock
	l   int
}

// Params returns the clock for g with ℓ privilege slots:
// α = n, K = 2n + diam·(2·⌈n/ℓ⌉ − 1) + 1. K ≥ 2n+1 > n ≥ cyclo(g), so the
// unison liveness condition holds for every ℓ.
func Params(gr *graph.Graph, l int) clock.Clock {
	n, d := gr.N(), gr.Diameter()
	groups := (n + l - 1) / l
	return clock.MustNew(n, 2*n+d*(2*groups-1)+1)
}

// New builds the protocol; ℓ must be in [1, n].
func New(gr *graph.Graph, l int) (*Protocol, error) {
	if l < 1 || l > gr.N() {
		return nil, fmt.Errorf("lexclusion: ℓ=%d outside [1, n=%d]", l, gr.N())
	}
	x := Params(gr, l)
	uni, err := unison.New(gr, x)
	if err != nil {
		return nil, fmt.Errorf("lexclusion: building on %s: %w", gr.Name(), err)
	}
	return &Protocol{uni: uni, g: gr, x: x, l: l}, nil
}

// MustNew is New that panics on error.
func MustNew(gr *graph.Graph, l int) *Protocol {
	p, err := New(gr, l)
	if err != nil {
		panic(err)
	}
	return p
}

// L returns ℓ, the concurrency level.
func (p *Protocol) L() int { return p.l }

// Groups returns ⌈n/ℓ⌉, the number of privilege slots on the clock ring.
func (p *Protocol) Groups() int { return (p.g.N() + p.l - 1) / p.l }

// Graph returns the communication graph.
func (p *Protocol) Graph() *graph.Graph { return p.g }

// Clock returns the bounded clock.
func (p *Protocol) Clock() clock.Clock { return p.x }

// Name implements sim.Protocol.
func (p *Protocol) Name() string { return fmt.Sprintf("l-exclusion[ℓ=%d]@%s", p.l, p.g.Name()) }

// N implements sim.Protocol.
func (p *Protocol) N() int { return p.g.N() }

// EnabledRule implements sim.Protocol (unison's rules verbatim).
func (p *Protocol) EnabledRule(c sim.Config[int], v int) (sim.Rule, bool) {
	return p.uni.EnabledRule(c, v)
}

// Apply implements sim.Protocol.
func (p *Protocol) Apply(c sim.Config[int], v int, r sim.Rule) int { return p.uni.Apply(c, v, r) }

// RandomState implements sim.Protocol.
func (p *Protocol) RandomState(v int, rng *rand.Rand) int { return p.uni.RandomState(v, rng) }

// RuleName implements sim.Protocol.
func (p *Protocol) RuleName(r sim.Rule) string { return p.uni.RuleName(r) }

var _ sim.Protocol[int] = (*Protocol)(nil)

// Neighbors implements sim.Local (unison's read-set: the graph adjacency).
func (p *Protocol) Neighbors(v int) []int { return p.uni.Neighbors(v) }

var _ sim.Local = (*Protocol)(nil)

// Group returns v's privilege group ⌊id_v/ℓ⌋.
func (p *Protocol) Group(v int) int { return v / p.l }

// PrivilegeValue returns the clock value at which v is privileged:
// 2n + 2·diam·group(v). Members of one group share it.
func (p *Protocol) PrivilegeValue(v int) int {
	return 2*p.g.N() + 2*p.g.Diameter()*p.Group(v)
}

// Privileged reports whether v may currently use the resource.
func (p *Protocol) Privileged(c sim.Config[int], v int) bool {
	return c[v] == p.PrivilegeValue(v)
}

// PrivilegedCount returns the number of privileged vertices in c.
func (p *Protocol) PrivilegedCount(c sim.Config[int]) int {
	count := 0
	for v := 0; v < p.g.N(); v++ {
		if p.Privileged(c, v) {
			count++
		}
	}
	return count
}

// SafeLX is the ℓ-exclusion safety predicate: at most ℓ privileged.
func (p *Protocol) SafeLX(c sim.Config[int]) bool { return p.PrivilegedCount(c) <= p.l }

// Legitimate reports membership in unison's Γ₁ (the closed legitimacy set;
// safety holds throughout it).
func (p *Protocol) Legitimate(c sim.Config[int]) bool { return p.uni.Legitimate(c) }

// DisorderPotential forwards unison's adversarial potential term.
func (p *Protocol) DisorderPotential(c sim.Config[int], v int) int64 {
	return p.uni.DisorderPotential(c, v)
}

// UnfairBoundMoves forwards the Theorem 3-style move bound (unison's).
func (p *Protocol) UnfairBoundMoves() int { return p.uni.UnfairHorizonMoves() }

// SyncUnisonHorizon returns α + lcp + diam ≤ 2n + diam, the synchronous
// Γ₁ bound.
func (p *Protocol) SyncUnisonHorizon() int { return 2*p.g.N() + p.g.Diameter() }

// ServiceWindow returns a synchronous window guaranteeing every vertex a
// privilege from any legitimate start (two full clock rotations plus the
// stabilization horizon).
func (p *Protocol) ServiceWindow() int { return 2*p.x.K + p.SyncUnisonHorizon() }

// UniformConfig returns the all-x configuration (legitimate for x ∈ stabX).
func (p *Protocol) UniformConfig(x int) (sim.Config[int], error) {
	if err := p.x.Validate(x); err != nil {
		return nil, err
	}
	cfg := make(sim.Config[int], p.g.N())
	for v := range cfg {
		cfg[v] = x
	}
	return cfg, nil
}

// Package dijkstra implements Dijkstra's seminal K-state self-stabilizing
// mutual-exclusion protocol on unidirectional rings (CACM 1974) — the
// baseline of the paper. Section 3 observes that it is accidentally
// (ud, sd, n², n)-speculatively stabilizing: Θ(n²) steps under the unfair
// distributed daemon but only n steps under the synchronous one, and
// Section 4 improves the synchronous figure to ⌈diam/2⌉ with SSME.
//
// Model: vertices 0..n−1 on a ring; vertex v reads only its predecessor
// (v−1 mod n). Vertex 0 is the "bottom" machine.
//
//	bottom:  x[0] = x[n−1]  →  x[0] := (x[0]+1) mod K
//	other v: x[v] ≠ x[v−1]  →  x[v] := x[v−1]
//
// A vertex is privileged exactly when its rule is enabled; with K ≥ n there
// is always at least one privileged vertex, the legitimate configurations
// are those with exactly one, and every execution converges to them.
package dijkstra

import (
	"fmt"
	"math/rand"

	"specstab/internal/graph"
	"specstab/internal/sim"
)

// Rule identifiers.
const (
	// RuleBottom is vertex 0's increment rule.
	RuleBottom sim.Rule = iota + 1
	// RulePass is the copy rule of every other vertex.
	RulePass
)

// Protocol is Dijkstra's K-state token ring. Its state type is int: the
// counter value x[v] ∈ [0, K).
type Protocol struct {
	sim.IntWord // packing half of the flat codec (see flat.go)

	n int
	k int
	g *graph.Graph
}

// New builds the protocol for a ring of n vertices with K counter states.
// Self-stabilization needs K ≥ n under the distributed daemon (ud), while
// K ≥ n−1 suffices under the central daemon (cd) — Hoepman's bound; the
// exhaustive checker finds K = n−1 cycles under ud for n = 3…7. New
// enforces K ≥ n, which holds under both (see NewUnchecked for the
// ablation that drops the check).
func New(n, k int) (*Protocol, error) {
	if n < 3 {
		return nil, fmt.Errorf("dijkstra: ring needs n ≥ 3, got %d", n)
	}
	if k < n {
		return nil, fmt.Errorf("dijkstra: need K ≥ n for self-stabilization, got K=%d n=%d", k, n)
	}
	return &Protocol{n: n, k: k, g: graph.Ring(n)}, nil
}

// NewUnchecked builds the protocol with an arbitrary K ≥ 2, allowing the
// under-provisioned clocks (K < n) whose non-convergence the model checker
// demonstrates in the E8 ablation.
func NewUnchecked(n, k int) (*Protocol, error) {
	if n < 3 || k < 2 {
		return nil, fmt.Errorf("dijkstra: need n ≥ 3 and K ≥ 2, got n=%d K=%d", n, k)
	}
	return &Protocol{n: n, k: k, g: graph.Ring(n)}, nil
}

// MustNew is New that panics on error.
func MustNew(n, k int) *Protocol {
	p, err := New(n, k)
	if err != nil {
		panic(err)
	}
	return p
}

// Graph returns the ring the protocol runs on.
func (p *Protocol) Graph() *graph.Graph { return p.g }

// K returns the number of counter states.
func (p *Protocol) K() int { return p.k }

// Name implements sim.Protocol.
func (p *Protocol) Name() string { return fmt.Sprintf("dijkstra-kstate[n=%d,K=%d]", p.n, p.k) }

// N implements sim.Protocol.
func (p *Protocol) N() int { return p.n }

// EnabledRule implements sim.Protocol.
func (p *Protocol) EnabledRule(c sim.Config[int], v int) (sim.Rule, bool) {
	if v == 0 {
		if c[0] == c[p.n-1] {
			return RuleBottom, true
		}
		return sim.NoRule, false
	}
	if c[v] != c[v-1] {
		return RulePass, true
	}
	return sim.NoRule, false
}

// Apply implements sim.Protocol.
func (p *Protocol) Apply(c sim.Config[int], v int, r sim.Rule) int {
	switch r {
	case RuleBottom:
		return (c[0] + 1) % p.k
	case RulePass:
		return c[v-1]
	default:
		panic(fmt.Sprintf("dijkstra: apply of unknown rule %d at vertex %d", r, v))
	}
}

// RandomState implements sim.Protocol: any counter value in [0, K).
func (p *Protocol) RandomState(_ int, rng *rand.Rand) int { return rng.Intn(p.k) }

// RuleName implements sim.Protocol.
func (p *Protocol) RuleName(r sim.Rule) string {
	switch r {
	case RuleBottom:
		return "bottom"
	case RulePass:
		return "pass"
	default:
		return fmt.Sprintf("rule(%d)", r)
	}
}

var _ sim.Protocol[int] = (*Protocol)(nil)

// Neighbors implements sim.Local with the protocol's directed read-set:
// vertex v reads only its ring predecessor (vertex 0 reads n−1), not both
// ring neighbors — the unidirectional structure Dijkstra's rules rely on.
// An engine therefore re-evaluates only an activated vertex and its
// successor after each step.
func (p *Protocol) Neighbors(v int) []int {
	if v == 0 {
		return []int{p.n - 1}
	}
	return []int{v - 1}
}

var _ sim.Local = (*Protocol)(nil)

// Privileged reports whether v holds a privilege in c (its rule is
// enabled) — Dijkstra's notion of the token.
func (p *Protocol) Privileged(c sim.Config[int], v int) bool {
	_, ok := p.EnabledRule(c, v)
	return ok
}

// TokenCount returns the number of privileged vertices. It is at least 1
// in every configuration and never increases along any execution.
func (p *Protocol) TokenCount(c sim.Config[int]) int {
	count := 0
	for v := 0; v < p.n; v++ {
		if p.Privileged(c, v) {
			count++
		}
	}
	return count
}

// SafeME is the mutual-exclusion safety predicate: at most one privilege.
func (p *Protocol) SafeME(c sim.Config[int]) bool { return p.TokenCount(c) <= 1 }

// Legitimate reports the protocol's legitimacy: exactly one privilege.
// Because TokenCount ≥ 1 always, this coincides with SafeME.
func (p *Protocol) Legitimate(c sim.Config[int]) bool { return p.TokenCount(c) == 1 }

// TokenPotential is v's term of the adversarial potential (a
// daemon.Potential): 1 if v holds a token. Schedules that keep many
// distinct tokens alive force more total moves, so the greedy adversary
// maximizes the token count.
func (p *Protocol) TokenPotential(c sim.Config[int], v int) int64 {
	if p.Privileged(c, v) {
		return 1
	}
	return 0
}

// WorstConfig returns the initial configuration realizing the Θ(n²)
// unfair-daemon stabilization time of Section 3: alternating value runs of
// length two, [0, 1,1, 0,0, 1,1, …]. Each run boundary is a token that
// must travel to the top of the ring to die; with K ≥ n the bottom machine
// cannot fire while another token is alive (x₀ = x_{n−1} forces all
// boundaries to have drained), so a central daemon that always activates
// the rightmost non-bottom token (daemon.NewMaxIDCentral) keeps two tokens
// alive while the ~n/2 boundaries travel ~n positions each — Θ(n²) moves.
// Under the synchronous daemon the same configuration drains all
// boundaries in parallel in Θ(n) steps, which is exactly the speculative
// gap the paper's catalogue quotes.
func (p *Protocol) WorstConfig() sim.Config[int] {
	cfg := make(sim.Config[int], p.n)
	cfg[0] = 0
	for i := 1; i < p.n; i++ {
		// Positions 1,2 → 1; 3,4 → 0; 5,6 → 1; …
		if ((i-1)/2)%2 == 0 {
			cfg[i] = 1
		} else {
			cfg[i] = 0
		}
	}
	return cfg
}

// SyncHorizon returns a safe synchronous-step horizon for measurement:
// the paper's Θ(n)-step synchronous claim with generous slack.
func (p *Protocol) SyncHorizon() int { return 4*p.n + p.k }

// UnfairHorizonMoves returns a safe move horizon under unfair daemons:
// the classical Θ(n²) worst case with slack (3n² + Kn covers every K ≥ n).
func (p *Protocol) UnfairHorizonMoves() int { return 3*p.n*p.n + p.k*p.n }

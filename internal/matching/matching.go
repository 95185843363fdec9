// Package matching implements the self-stabilizing maximal-matching
// protocol of Manne, Mjelde, Pilard and Tixeuil (TCS 2009), the third
// entry of the paper's Section 3 catalogue: it is
// (ud, sd, 4n+2m, 2n+1)-speculatively stabilizing — it needs at most
// 4n + 2m moves under the unfair distributed daemon but only 2n + 1 steps
// under the synchronous one.
//
// Each vertex v holds a pointer p_v ∈ neig(v) ∪ {⊥} and a boolean m_v.
// Writing PRmarried(v) ≡ ∃u ∈ neig(v) : (p_v = u ∧ p_u = v), the four
// rules are (Update has priority; the other three require m_v accurate):
//
//	Update      : m_v ≠ PRmarried(v)                        → m_v := PRmarried(v)
//	Marriage    : p_v = ⊥ ∧ ∃u: (p_u = v ∧ ¬m_u)            → p_v := u      (accept a proposal)
//	Seduction   : p_v = ⊥ ∧ ∀u: p_u ≠ v
//	              ∧ ∃u: (p_u = ⊥ ∧ ¬m_u ∧ id_u > id_v)      → p_v := max u  (propose upward)
//	Abandonment : p_v = u ∧ p_u ≠ v ∧ (m_u ∨ id_u < id_v)   → p_v := ⊥      (drop a dead proposal)
//
// The protocol is silent: at its terminal configurations the mutual
// pointers {v, p_v} form a maximal matching of the graph.
package matching

import (
	"fmt"
	"math/rand"

	"specstab/internal/graph"
	"specstab/internal/sim"
)

// Null is the ⊥ pointer value.
const Null = -1

// State is one vertex's state: the pointer P (a neighbor id or Null) and
// the married flag M.
type State struct {
	P int
	M bool
}

// Rule identifiers.
const (
	// RuleUpdate repairs the married flag.
	RuleUpdate sim.Rule = iota + 1
	// RuleMarriage accepts a pending proposal.
	RuleMarriage
	// RuleSeduction proposes to the largest eligible higher-id neighbor.
	RuleSeduction
	// RuleAbandonment withdraws a proposal that can never be accepted.
	RuleAbandonment
)

// Protocol is the MMPT maximal-matching protocol bound to a graph.
type Protocol struct {
	g *graph.Graph
}

// New builds the protocol on g.
func New(g *graph.Graph) *Protocol { return &Protocol{g: g} }

// Graph returns the communication graph.
func (p *Protocol) Graph() *graph.Graph { return p.g }

// Name implements sim.Protocol.
func (p *Protocol) Name() string { return "mmpt-matching@" + p.g.Name() }

// N implements sim.Protocol.
func (p *Protocol) N() int { return p.g.N() }

// PRMarried is PRmarried(v): v and its pointee point at each other.
func (p *Protocol) PRMarried(c sim.Config[State], v int) bool {
	u := c[v].P
	return u != Null && c[u].P == v
}

// EnabledRule implements sim.Protocol. Guards follow the MMPT priority:
// Update first; the remaining rules presuppose an accurate married flag
// (their guards are mutually exclusive given that).
func (p *Protocol) EnabledRule(c sim.Config[State], v int) (sim.Rule, bool) {
	married := p.PRMarried(c, v)
	if c[v].M != married {
		return RuleUpdate, true
	}
	if married {
		return sim.NoRule, false
	}
	if c[v].P == Null {
		if p.proposer(c, v) != Null {
			return RuleMarriage, true
		}
		if p.seductionTarget(c, v) != Null {
			return RuleSeduction, true
		}
		return sim.NoRule, false
	}
	u := c[v].P
	if c[u].P != v && (c[u].M || u < v) {
		return RuleAbandonment, true
	}
	return sim.NoRule, false
}

// proposer returns the smallest unmarried neighbor pointing at v, or Null.
func (p *Protocol) proposer(c sim.Config[State], v int) int {
	for _, u := range p.g.Neighbors(v) { // sorted ascending
		if c[u].P == v && !c[u].M {
			return u
		}
	}
	return Null
}

// seductionTarget returns max{u ∈ neig(v) : p_u = ⊥ ∧ ¬m_u ∧ u > v}, or
// Null, provided no neighbor points at v (otherwise Marriage applies).
func (p *Protocol) seductionTarget(c sim.Config[State], v int) int {
	for _, u := range p.g.Neighbors(v) {
		if c[u].P == v {
			return Null
		}
	}
	best := Null
	for _, u := range p.g.Neighbors(v) {
		if u > v && c[u].P == Null && !c[u].M && u > best {
			best = u
		}
	}
	return best
}

// Apply implements sim.Protocol.
func (p *Protocol) Apply(c sim.Config[State], v int, r sim.Rule) State {
	s := c[v]
	switch r {
	case RuleUpdate:
		s.M = p.PRMarried(c, v)
	case RuleMarriage:
		s.P = p.proposer(c, v)
	case RuleSeduction:
		s.P = p.seductionTarget(c, v)
	case RuleAbandonment:
		s.P = Null
	default:
		panic(fmt.Sprintf("matching: apply of unknown rule %d at vertex %d", r, v))
	}
	return s
}

// RandomState implements sim.Protocol: an arbitrary value of v's variable
// domain — a pointer in neig(v) ∪ {⊥} plus a flag. Transient faults can
// corrupt variables arbitrarily but cannot take them outside their domain,
// so pointers to non-neighbors never occur and the rules preserve this.
func (p *Protocol) RandomState(v int, rng *rand.Rand) State {
	ns := p.g.Neighbors(v)
	pick := rng.Intn(len(ns) + 1)
	ptr := Null
	if pick < len(ns) {
		ptr = ns[pick]
	}
	return State{P: ptr, M: rng.Intn(2) == 0}
}

// RuleName implements sim.Protocol.
func (p *Protocol) RuleName(r sim.Rule) string {
	switch r {
	case RuleUpdate:
		return "update"
	case RuleMarriage:
		return "marriage"
	case RuleSeduction:
		return "seduction"
	case RuleAbandonment:
		return "abandonment"
	default:
		return fmt.Sprintf("rule(%d)", r)
	}
}

var _ sim.Protocol[State] = (*Protocol)(nil)

// Neighbors implements sim.Local: every MMPT guard (PRmarried, proposer
// search, seduction target, abandonment test) reads only the pointer/flag
// pairs of v's graph neighbors.
func (p *Protocol) Neighbors(v int) []int { return p.g.Neighbors(v) }

var _ sim.Local = (*Protocol)(nil)

// MaxRule implements sim.RuleBounded: rules are update, marriage,
// seduction and abandonment.
func (p *Protocol) MaxRule() sim.Rule { return RuleAbandonment }

var _ sim.RuleBounded = (*Protocol)(nil)

// Matched returns the matching encoded by the mutual pointers of c,
// as edges {u, v} with u < v.
func (p *Protocol) Matched(c sim.Config[State]) [][2]int {
	var out [][2]int
	for v := 0; v < p.g.N(); v++ {
		u := c[v].P
		if u != Null && u > v && c[u].P == v {
			out = append(out, [2]int{v, u})
		}
	}
	return out
}

// IsMaximalMatching reports whether the mutual pointers of c form a
// maximal matching: every vertex in at most one matched edge, and no edge
// of g has both endpoints unmatched.
func (p *Protocol) IsMaximalMatching(c sim.Config[State]) bool {
	matched := make([]bool, p.g.N())
	for _, e := range p.Matched(c) {
		if matched[e[0]] || matched[e[1]] {
			return false // cannot happen with mutual pointers, but verify
		}
		matched[e[0]], matched[e[1]] = true, true
	}
	for _, e := range p.g.Edges() {
		if !matched[e[0]] && !matched[e[1]] {
			return false
		}
	}
	return true
}

// UnfairBoundMoves returns the MMPT bound 4n + 2m on total moves under the
// unfair distributed daemon, quoted in Section 3.
func (p *Protocol) UnfairBoundMoves() int { return 4*p.g.N() + 2*p.g.M() }

// SyncBoundSteps returns the MMPT bound 2n + 1 on synchronous steps,
// quoted in Section 3.
func (p *Protocol) SyncBoundSteps() int { return 2*p.g.N() + 1 }

// ChurnPriority orders the rules for the Θ(m) adversarial schedule (use
// with daemon.NewRulePriorityCentral): fire every pending Abandonment
// before any Seduction — so that after each wedding every remaining single
// frees its pointer and the whole pool re-proposes to the next-highest
// single — and accept a Marriage only when nothing else is enabled. On K_n
// from the clean all-⊥ configuration every single courts the top remaining
// single each round: ~n²/4 proposals, the Θ(m) shape of the 4n+2m bound.
func ChurnPriority() map[sim.Rule]int {
	return map[sim.Rule]int{
		RuleAbandonment: 0,
		RuleSeduction:   1,
		RuleUpdate:      2,
		RuleMarriage:    3,
	}
}

// CleanConfig returns the all-⊥, all-unmarried configuration — the natural
// "no proposals yet" start used by the churn measurement.
func (p *Protocol) CleanConfig() sim.Config[State] {
	c := make(sim.Config[State], p.g.N())
	for v := range c {
		c[v] = State{P: Null}
	}
	return c
}

// ProgressPotential is v's term of the adversarial potential (a
// daemon.Potential): 2 if v is enabled, plus 1 if v's proposal is pending
// (one-sided). Greedy adversaries keep the total high to force the 4n+2m
// move budget to be spent. A pointer names a neighbor, so the term reads
// only v's read-set.
func (p *Protocol) ProgressPotential(c sim.Config[State], v int) int64 {
	var term int64
	if _, ok := p.EnabledRule(c, v); ok {
		term = 2
	}
	if u := c[v].P; u != Null && c[u].P != v {
		term++
	}
	return term
}

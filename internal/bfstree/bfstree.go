// Package bfstree implements the self-stabilizing "min+1" breadth-first
// spanning-tree protocol of Huang and Chen (IPL 1992), the second entry of
// the paper's Section 3 catalogue: it is (ud, sd, n², diam)-speculatively
// stabilizing — Θ(n²) steps under the unfair distributed daemon but
// Θ(diam(g)) steps under the synchronous one.
//
// Each vertex maintains a level d_v; the designated root pins d_root = 0
// and every other vertex repairs d_v to min{d_u : u ∈ neig(v)} + 1. The
// protocol is silent: it stabilizes exactly when no rule is enabled, which
// happens precisely when every level equals the true BFS distance from the
// root.
package bfstree

import (
	"fmt"
	"math/rand"

	"specstab/internal/graph"
	"specstab/internal/sim"
)

// Rule identifiers.
const (
	// RuleRoot pins the root's level to 0.
	RuleRoot sim.Rule = iota + 1
	// RuleMinPlusOne repairs a non-root level to min neighbor + 1.
	RuleMinPlusOne
)

// Protocol is the min+1 BFS protocol rooted at Root. Its state type is
// int: the level d_v (arbitrary non-negative values after a fault).
type Protocol struct {
	sim.IntWord // packing half of the flat codec (see flat.go)

	g    *graph.Graph
	root int
	// dist holds the true BFS distances from root, read by the Correct
	// and ErrorMass predicates.
	dist []int
}

// New builds the protocol on g rooted at root.
func New(g *graph.Graph, root int) (*Protocol, error) {
	if root < 0 || root >= g.N() {
		return nil, fmt.Errorf("bfstree: root %d out of range [0,%d)", root, g.N())
	}
	return &Protocol{g: g, root: root, dist: g.BFSDistances(root)}, nil
}

// MustNew is New that panics on error.
func MustNew(g *graph.Graph, root int) *Protocol {
	p, err := New(g, root)
	if err != nil {
		panic(err)
	}
	return p
}

// Graph returns the communication graph.
func (p *Protocol) Graph() *graph.Graph { return p.g }

// Root returns the designated root vertex.
func (p *Protocol) Root() int { return p.root }

// Name implements sim.Protocol.
func (p *Protocol) Name() string {
	return fmt.Sprintf("bfs-min+1[root=%d]@%s", p.root, p.g.Name())
}

// N implements sim.Protocol.
func (p *Protocol) N() int { return p.g.N() }

// minNeighbor returns min{d_u : u ∈ neig(v)}.
func (p *Protocol) minNeighbor(c sim.Config[int], v int) int {
	ns := p.g.Neighbors(v)
	m := c[ns[0]]
	for _, u := range ns[1:] {
		if c[u] < m {
			m = c[u]
		}
	}
	return m
}

// EnabledRule implements sim.Protocol.
func (p *Protocol) EnabledRule(c sim.Config[int], v int) (sim.Rule, bool) {
	if v == p.root {
		if c[v] != 0 {
			return RuleRoot, true
		}
		return sim.NoRule, false
	}
	if c[v] != p.minNeighbor(c, v)+1 {
		return RuleMinPlusOne, true
	}
	return sim.NoRule, false
}

// Apply implements sim.Protocol.
func (p *Protocol) Apply(c sim.Config[int], v int, r sim.Rule) int {
	switch r {
	case RuleRoot:
		return 0
	case RuleMinPlusOne:
		return p.minNeighbor(c, v) + 1
	default:
		panic(fmt.Sprintf("bfstree: apply of unknown rule %d at vertex %d", r, v))
	}
}

// RandomState implements sim.Protocol: an arbitrary level in [0, n] (any
// non-negative value a transient fault may leave; values above n behave
// identically to n as far as the min+1 dynamics are concerned).
func (p *Protocol) RandomState(_ int, rng *rand.Rand) int { return rng.Intn(p.g.N() + 1) }

// RuleName implements sim.Protocol.
func (p *Protocol) RuleName(r sim.Rule) string {
	switch r {
	case RuleRoot:
		return "root"
	case RuleMinPlusOne:
		return "min+1"
	default:
		return fmt.Sprintf("rule(%d)", r)
	}
}

var _ sim.Protocol[int] = (*Protocol)(nil)

// Neighbors implements sim.Local: the root's guard reads only its own
// level, every other vertex's guard reads min over its graph neighbors.
func (p *Protocol) Neighbors(v int) []int {
	if v == p.root {
		return nil
	}
	return p.g.Neighbors(v)
}

var _ sim.Local = (*Protocol)(nil)

// Correct reports whether c assigns every vertex its true BFS distance
// from the root — the silent protocol's unique terminal configuration.
func (p *Protocol) Correct(c sim.Config[int]) bool {
	for v := 0; v < p.g.N(); v++ {
		if c[v] != p.dist[v] {
			return false
		}
	}
	return true
}

// ErrorMass is the adversarial potential: total remaining level error plus
// the enabled count, so greedy adversaries prolong under-estimate climbs
// (each unit of under-estimate near a small-valued cycle costs a move).
func (p *Protocol) ErrorMass(c sim.Config[int]) float64 {
	mass := 0.0
	for v := 0; v < p.g.N(); v++ {
		d := c[v] - p.dist[v]
		if d < 0 {
			d = -d
		}
		mass += float64(d)
	}
	enabled := 0
	for v := 0; v < p.g.N(); v++ {
		if _, ok := p.EnabledRule(c, v); ok {
			enabled++
		}
	}
	return mass + float64(enabled)/float64(p.g.N()+1)
}

// SyncHorizon returns a safe synchronous horizon: Θ(diam) claim with
// slack (under-estimates can climb for up to ~n steps on short-diameter
// graphs, so the slack includes n).
func (p *Protocol) SyncHorizon() int { return 3*p.g.N() + 3*p.g.Diameter() + 3 }

// UnfairHorizonMoves returns a safe move horizon under unfair daemons for
// the Θ(n²) claim.
func (p *Protocol) UnfairHorizonMoves() int { n := p.g.N(); return 4*n*n + 4*n }

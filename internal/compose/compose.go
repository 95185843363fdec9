// Package compose implements the composition tool the paper's conclusion
// sketches as future work: running two guarded-command protocols with
// disjoint variables side by side on the same graph (collateral product).
//
// When a vertex is activated it fires the enabled rule of each component
// (one, the other, or both). Each component's projection of a composite
// execution is a legal execution of that component, so:
//
//   - under the synchronous daemon both components stabilize independently
//     and conv_time(A×B, sd) ≤ max(conv_time(A, sd), conv_time(B, sd)) —
//     speculative stabilization composes with the max of the weak-daemon
//     bounds;
//   - under weakly fair daemons (round-robin, distributed-p, sd) the same
//     holds in the respective measures.
//
// Honesty note: under the *unfair* distributed daemon the product does NOT
// automatically self-stabilize — an unfair scheduler can forever activate
// only vertices where a never-terminating component (e.g. unison) is
// enabled, starving the other component. This is the classical fair-
// composition caveat; the package documents it and the tests exhibit both
// the composing cases and the caveat's boundary.
package compose

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"

	"specstab/internal/sim"
)

// Pair is the product state: component A's state and component B's state.
type Pair[A, B comparable] struct {
	First  A
	Second B
}

// Product runs two protocols with disjoint state on the same vertex set.
// A Product is safe for concurrent use: guard evaluation draws its
// projection scratch from a pool and the rule-pair table is filled once at
// construction and only read afterwards, so compositions run under the
// engine's shard-parallel step and across concurrent engines (the race
// tests exercise exactly that).
//
// Product rules are interned pairs of component rules, so products nest:
// a Product is itself a sim.Protocol and can be composed again (see the
// three-way composition test). Both components must declare their rule
// bounds (sim.RuleBounded — every protocol of this repository does): the
// whole pair table is interned at construction in lexicographic order,
// which makes rule numbering a pure function of the bounds, independent
// of evaluation order or concurrency.
type Product[A, B comparable] struct {
	a sim.Protocol[A]
	b sim.Protocol[B]

	// Projection scratch: *projPair[A, B], pooled so that concurrent
	// guard evaluations never share buffers.
	proj sync.Pool

	// Rule interning: product rule r (≥ 1) stands for component pair
	// pairs[r−1]; index[ra*(bb+1)+rb] inverts it for ra ≤ ba, rb ≤ bb,
	// the component bounds, so the kernels translate pairs without a map.
	pairs  [][2]sim.Rule
	index  []sim.Rule
	ba, bb sim.Rule
}

// projPair is one projection scratch: both component views of a product
// configuration.
type projPair[A, B comparable] struct {
	a sim.Config[A]
	b sim.Config[B]
}

// internRule returns the product rule for the component pair. A pair
// outside the declared bounds means a component broke its sim.RuleBounded
// contract, which no caller can recover from.
func (p *Product[A, B]) internRule(ra, rb sim.Rule) sim.Rule {
	if ra > p.ba || rb > p.bb {
		panic(fmt.Sprintf("compose: rule pair (%d, %d) exceeds the declared bounds (%d, %d) of %s", ra, rb, p.ba, p.bb, p.Name()))
	}
	return p.index[int(ra)*(int(p.bb)+1)+int(rb)]
}

// DecodeRule splits a product rule into its component rules (either may be
// sim.NoRule when only one component fires).
func (p *Product[A, B]) DecodeRule(r sim.Rule) (ra, rb sim.Rule) {
	if r < 1 || int(r) > len(p.pairs) {
		return sim.NoRule, sim.NoRule
	}
	pair := p.pairs[r-1]
	return pair[0], pair[1]
}

// New builds the product. The components must agree on the vertex count
// and both declare their rule bounds (sim.RuleBounded).
func New[A, B comparable](a sim.Protocol[A], b sim.Protocol[B]) (*Product[A, B], error) {
	if a.N() != b.N() {
		return nil, fmt.Errorf("compose: component sizes differ (%d vs %d)", a.N(), b.N())
	}
	ba, ok := sim.MaxRuleOf(a)
	if !ok {
		return nil, fmt.Errorf("compose: component %s does not declare its rule bound (sim.RuleBounded)", a.Name())
	}
	bb, ok := sim.MaxRuleOf(b)
	if !ok {
		return nil, fmt.Errorf("compose: component %s does not declare its rule bound (sim.RuleBounded)", b.Name())
	}
	p := &Product[A, B]{a: a, b: b, ba: ba, bb: bb}
	p.proj.New = func() any { return &projPair[A, B]{} }
	// Intern every pair in lexicographic order: product rule numbering is
	// a pure function of the component bounds.
	p.index = make([]sim.Rule, (int(ba)+1)*(int(bb)+1))
	for ra := sim.Rule(0); ra <= ba; ra++ {
		for rb := sim.Rule(0); rb <= bb; rb++ {
			if ra == 0 && rb == 0 {
				continue
			}
			p.pairs = append(p.pairs, [2]sim.Rule{ra, rb})
			p.index[int(ra)*(int(bb)+1)+int(rb)] = sim.Rule(len(p.pairs))
		}
	}
	return p, nil
}

// MustNew is New that panics on error.
func MustNew[A, B comparable](a sim.Protocol[A], b sim.Protocol[B]) *Product[A, B] {
	p, err := New(a, b)
	if err != nil {
		panic(err)
	}
	return p
}

// Name implements sim.Protocol.
func (p *Product[A, B]) Name() string { return p.a.Name() + " × " + p.b.Name() }

// N implements sim.Protocol.
func (p *Product[A, B]) N() int { return p.a.N() }

// First returns component A's protocol; Second component B's.
func (p *Product[A, B]) First() sim.Protocol[A]  { return p.a }
func (p *Product[A, B]) Second() sim.Protocol[B] { return p.b }

// MaxRule implements sim.RuleBounded: the interned pair table is the
// complete rule space.
func (p *Product[A, B]) MaxRule() sim.Rule { return sim.Rule(len(p.pairs)) }

// ProjectA extracts component A's configuration.
func (p *Product[A, B]) ProjectA(c sim.Config[Pair[A, B]]) sim.Config[A] {
	out := make(sim.Config[A], len(c))
	for v := range c {
		out[v] = c[v].First
	}
	return out
}

// ProjectB extracts component B's configuration.
func (p *Product[A, B]) ProjectB(c sim.Config[Pair[A, B]]) sim.Config[B] {
	out := make(sim.Config[B], len(c))
	for v := range c {
		out[v] = c[v].Second
	}
	return out
}

// Combine zips two component configurations into a product configuration.
func Combine[A, B comparable](ca sim.Config[A], cb sim.Config[B]) sim.Config[Pair[A, B]] {
	out := make(sim.Config[Pair[A, B]], len(ca))
	for v := range ca {
		out[v] = Pair[A, B]{First: ca[v], Second: cb[v]}
	}
	return out
}

// projections fills a pooled scratch pair with both component views; the
// caller must release it after use and must not retain the views.
func (p *Product[A, B]) projections(c sim.Config[Pair[A, B]]) *projPair[A, B] {
	pp := p.proj.Get().(*projPair[A, B])
	if cap(pp.a) < len(c) {
		pp.a = make(sim.Config[A], len(c))
		pp.b = make(sim.Config[B], len(c))
	}
	pp.a, pp.b = pp.a[:len(c)], pp.b[:len(c)]
	for v := range c {
		pp.a[v] = c[v].First
		pp.b[v] = c[v].Second
	}
	return pp
}

// release returns a projection scratch to the pool.
func (p *Product[A, B]) release(pp *projPair[A, B]) { p.proj.Put(pp) }

// EnabledRule implements sim.Protocol: a vertex is enabled when either
// component is, and firing executes every enabled component rule.
func (p *Product[A, B]) EnabledRule(c sim.Config[Pair[A, B]], v int) (sim.Rule, bool) {
	pp := p.projections(c)
	ra, okA := p.a.EnabledRule(pp.a, v)
	rb, okB := p.b.EnabledRule(pp.b, v)
	p.release(pp)
	if !okA && !okB {
		return sim.NoRule, false
	}
	if !okA {
		ra = sim.NoRule
	}
	if !okB {
		rb = sim.NoRule
	}
	return p.internRule(ra, rb), true
}

// Apply implements sim.Protocol.
func (p *Product[A, B]) Apply(c sim.Config[Pair[A, B]], v int, r sim.Rule) Pair[A, B] {
	ra, rb := p.DecodeRule(r)
	pp := p.projections(c)
	next := c[v]
	if ra != sim.NoRule {
		next.First = p.a.Apply(pp.a, v, ra)
	}
	if rb != sim.NoRule {
		next.Second = p.b.Apply(pp.b, v, rb)
	}
	p.release(pp)
	return next
}

// RandomState implements sim.Protocol.
func (p *Product[A, B]) RandomState(v int, rng *rand.Rand) Pair[A, B] {
	return Pair[A, B]{First: p.a.RandomState(v, rng), Second: p.b.RandomState(v, rng)}
}

// RuleName implements sim.Protocol.
func (p *Product[A, B]) RuleName(r sim.Rule) string {
	ra, rb := p.DecodeRule(r)
	switch {
	case ra != sim.NoRule && rb != sim.NoRule:
		return p.a.RuleName(ra) + "+" + p.b.RuleName(rb)
	case ra != sim.NoRule:
		return p.a.RuleName(ra)
	case rb != sim.NoRule:
		return p.b.RuleName(rb)
	default:
		return "none"
	}
}

var _ sim.Protocol[Pair[int, int]] = (*Product[int, int])(nil)

// Local implements the sim locality hook: a product vertex's guard reads
// the union of the component read-sets, so the product declares locality
// exactly when both components do. Component lists are merged once into
// explicit adjacency lists; products of products compose transparently.
func (p *Product[A, B]) Local() (sim.Local, bool) {
	la, lb := sim.LocalOf(p.a), sim.LocalOf(p.b)
	if la == nil || lb == nil {
		return nil, false
	}
	lists := make(sim.NeighborLists, p.N())
	for v := range lists {
		lists[v] = sortedUnion(la.Neighbors(v), lb.Neighbors(v))
	}
	return lists, true
}

// sortedUnion merges two neighbor lists into a fresh sorted duplicate-free
// slice (inputs need not be sorted per the sim.Local contract).
func sortedUnion(a, b []int) []int {
	out := make([]int, 0, len(a)+len(b))
	out = append(out, a...)
	out = append(out, b...)
	sort.Ints(out)
	w := 0
	for i, x := range out {
		if i == 0 || x != out[w-1] {
			out[w] = x
			w++
		}
	}
	return out[:w]
}

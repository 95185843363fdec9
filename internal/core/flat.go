package core

// Flat execution codec: SSME's moves are exactly unison's moves (the
// privilege predicate does not interfere with the protocol), so the
// packed representation and the batch kernels delegate verbatim.

import "specstab/internal/sim"

// EnabledRuleFlat implements sim.Flat.
func (p *Protocol) EnabledRuleFlat(st []int64, stride, base int, vs []int, rules []sim.Rule) {
	p.uni.EnabledRuleFlat(st, stride, base, vs, rules)
}

// ApplyFlat implements sim.Flat.
func (p *Protocol) ApplyFlat(st []int64, stride, base int, vs []int, rules []sim.Rule, out []int64, outStride, outBase int) {
	p.uni.ApplyFlat(st, stride, base, vs, rules, out, outStride, outBase)
}

var _ sim.Flat[int] = (*Protocol)(nil)

// MaxRule implements sim.RuleBounded.
func (p *Protocol) MaxRule() sim.Rule { return p.uni.MaxRule() }

var _ sim.RuleBounded = (*Protocol)(nil)

// UniformRule implements sim.Uniform: SSME's guards and moves are
// unison's, so unison's NA fixpoint carries over.
func (p *Protocol) UniformRule() sim.Rule { return p.uni.UniformRule() }

var _ sim.Uniform = (*Protocol)(nil)

package lexclusion

// Flat execution codec: ℓ-exclusion runs unison's rules verbatim on a
// larger clock (only the privilege predicate differs), so the packed
// representation and the batch kernels delegate to the substrate.

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

// UniformRule implements sim.Uniform: ℓ-exclusion runs unison's rules,
// so unison's NA fixpoint carries over.
func (p *Protocol) UniformRule() sim.Rule { return p.uni.UniformRule() }

// ApplyUniformFlat implements sim.Uniform: unison's tick, on the same
// one-word records.
func (p *Protocol) ApplyUniformFlat(st []int64) { p.uni.ApplyUniformFlat(st) }

var _ sim.Uniform = (*Protocol)(nil)

package unison

// Flat execution codec (sim.Flat, DESIGN.md §6): one int64 word per
// vertex holding the cherry clock value, guards evaluated in a single
// pass over the graph's CSR adjacency with inlined clock arithmetic —
// no interface dispatch per guard, no allocation, no Config[S] boxing.
// The kernels below mirror EnabledRule/Apply line by line; the flat
// conformance and differential tests assert exact agreement.

import "specstab/internal/sim"

// EnabledRuleFlat implements sim.Flat with the guards of Algorithm 1.
// For each vertex one CSR row sweep simultaneously tracks the three
// universally quantified predicates:
//
//	ac   — allCorrect_v: r_v ∈ stabX ∧ ∀u (r_u ∈ stabX ∧ d_K(r_v,r_u) ≤ 1)
//	leq  — ∀u, r_v ≤_l r_u (the normal-step minimality condition)
//	conv — r_v ∈ init*X ∧ ∀u (r_u ∈ initX ∧ r_v ≤ r_u)
//
// and the rule selection reproduces EnabledRule's order: NA, then CA,
// then RA when ¬allCorrect ∧ r_v ∉ initX.
func (p *Protocol) EnabledRuleFlat(st []int64, stride, base int, vs []int, rules []sim.Rule) {
	if stride == 1 && base == 0 {
		p.enabledRuleFlatUnit(st, vs, rules)
		return
	}
	csr := p.g.CSR()
	off, tgt := csr.Offsets, csr.Targets
	alpha, k := int64(p.x.Alpha), int64(p.x.K)
	for i, v := range vs {
		rv := st[v*stride+base]
		ac := rv >= 0 && rv < k // r_v ∈ stabX
		leq := true
		conv := rv >= -alpha && rv < 0 // r_v ∈ init*X
		for j := off[v]; j < off[v+1]; j++ {
			ru := st[int(tgt[j])*stride+base]
			if ac {
				if ru < 0 || ru >= k {
					ac = false
				} else {
					d := (rv - ru) % k
					if d < 0 {
						d += k
					}
					if d != 0 && d != 1 && d != k-1 { // d_K(r_v, r_u) > 1
						ac = false
					}
				}
			}
			if leq {
				d := (ru - rv) % k
				if d < 0 {
					d += k
				}
				if d != 0 && d != 1 { // ¬(r_v ≤_l r_u)
					leq = false
				}
			}
			if conv {
				if ru < -alpha || ru > 0 || rv > ru { // r_u ∉ initX ∨ r_v > r_u
					conv = false
				}
			}
			if !ac && !leq && !conv {
				break
			}
		}
		switch {
		case ac && leq:
			rules[i] = RuleNA
		case conv:
			rules[i] = RuleCA
		case !ac && !(rv >= -alpha && rv <= 0): // ¬allCorrect ∧ r_v ∉ initX
			rules[i] = RuleRA
		default:
			rules[i] = sim.NoRule
		}
	}
}

// enabledRuleFlatUnit is EnabledRuleFlat for the unit-stride layout the
// engine uses directly (stride 1, base 0) — same guards, no integer
// division: cherry membership is one unsigned compare, and for r_v, r_u
// both in [0, K) the difference r_u − r_v lies in (−K, K), so Mod needs
// one conditional +K at most (idiv is ~30 cycles and would dominate).
//
// r_v ∈ stabX is the hot case — every vertex of a Γ₁ configuration — and
// its row sweep is one loop. Only NA is reachable there (CA needs
// r_v < 0), and RA needs ¬allCorrect ∧ r_v ∉ initX, i.e. r_v ≥ 1. A
// neighbour equal to r_v is skipped outright: it lies in stabX (because
// r_v does), d_K(r_v, r_v) = 0 and r_v ≤_l r_v, so it can change neither
// predicate. Any other neighbour sits at ℓ = Mod(r_u − r_v) ∈ [1, K):
// ℓ = 1 keeps both predicates, ℓ = K−1 (d_K = 1, wrap included) keeps
// allCorrect but breaks minimality, anything else — or r_u ∉ stabX —
// breaks allCorrect and settles the outcome.
func (p *Protocol) enabledRuleFlatUnit(st []int64, vs []int, rules []sim.Rule) {
	csr := p.g.CSR()
	off, tgt := csr.Offsets, csr.Targets
	alpha, k := int64(p.x.Alpha), int64(p.x.K)
	rules = rules[:len(vs)]
	for i, v := range vs {
		rv := st[v]
		if uint64(rv) >= uint64(k) { // r_v ∉ stabX
			rules[i] = initRule(st, tgt[off[v]:off[v+1]], rv, alpha)
			continue
		}
		rule := RuleNA
		for j, end := off[v], off[v+1]; j < end; j++ {
			ru := st[tgt[j]]
			if ru == rv {
				continue
			}
			if uint64(ru) < uint64(k) {
				l := ru - rv
				if l < 0 {
					l += k
				}
				if l == 1 {
					continue
				}
				if l == k-1 {
					rule = sim.NoRule // correct, but r_v is not locally minimal
					continue
				}
			}
			// r_u ∉ stabX or d_K(r_v, r_u) > 1: ¬allCorrect, so RA unless
			// r_v = 0 ∈ initX.
			rule = RuleRA
			if rv == 0 {
				rule = sim.NoRule
			}
			break
		}
		rules[i] = rule
	}
}

// initRule is the unit kernel's rule for r_v ∉ stabX. Inside init*X
// (−α ≤ r_v < 0) only CA is reachable — ¬allCorrect holds, but r_v ∈ initX
// blocks RA — and it needs every neighbour in [r_v, 0]; outside the
// cherry, ¬allCorrect ∧ r_v ∉ initX makes it RA.
func initRule(st []int64, row []int32, rv, alpha int64) sim.Rule {
	if uint64(rv+alpha) >= uint64(alpha) {
		return RuleRA
	}
	for _, u := range row {
		if uint64(st[u]-rv) > uint64(-rv) { // r_u ∉ [r_v, 0]
			return sim.NoRule
		}
	}
	return RuleCA
}

// ApplyFlat implements sim.Flat: φ for NA/CA, the reset value −α for RA.
// NA fires only with r_v ∈ [0, K) and CA only with r_v < 0, so the
// increment wraps at exactly K.
func (p *Protocol) ApplyFlat(st []int64, stride, base int, vs []int, rules []sim.Rule, out []int64, outStride, outBase int) {
	alpha, k := int64(p.x.Alpha), int64(p.x.K)
	if stride == 1 && base == 0 && outStride == 1 && outBase == 0 {
		rules, out = rules[:len(vs)], out[:len(vs)]
		for i, v := range vs {
			out[i] = applyRule(st[v], rules[i], alpha, k)
		}
		return
	}
	for i, v := range vs {
		out[i*outStride+outBase] = applyRule(st[v*stride+base], rules[i], alpha, k)
	}
}

// applyRule is one vertex's move: φ(r_v) for NA and CA, −α for RA.
func applyRule(rv int64, r sim.Rule, alpha, k int64) int64 {
	switch r {
	case RuleNA, RuleCA:
		if rv++; rv >= k {
			rv = 0
		}
		return rv
	case RuleRA:
		return -alpha
	default:
		panic("unison: flat apply of unknown rule")
	}
}

var _ sim.Flat[int] = (*Protocol)(nil)

// MaxRule implements sim.RuleBounded: rules are NA, CA, RA.
func (p *Protocol) MaxRule() sim.Rule { return RuleRA }

var _ sim.RuleBounded = (*Protocol)(nil)

// UniformRule implements sim.Uniform: NA is a fixpoint of the synchronous
// step. Proof: let every vertex be NA-enabled, so normalStep_v holds for
// all v, and let all of them fire. normalStep_v reads only whether r_v and
// each neighbour's r_u lie in stabX, d_K(r_v, r_u) ≤ 1 and r_v ≤_l r_u.
// Every r_v lies in stabX (allCorrect_v), where NA is r ↦ r+1 mod K, so the
// firing maps stabX onto itself and shifts every register by the same
// amount. d_K and ≤_l depend only on (r_u − r_v) mod K, which a common
// shift keeps. So normalStep_v holds again for every v, and EnabledRule
// checks NA first. The r_v = 0 exception concerns RA only. Nothing here
// depends on the graph, α or K (K = 2 included). CA and RA are not
// fixpoints: CA climbs the init tail toward 0 and RA leaves stabX.
func (p *Protocol) UniformRule() sim.Rule { return RuleNA }

// ApplyUniformFlat implements sim.Uniform: every register ticks
// r ↦ r+1 mod K in place. NA is enabled only on r ∈ [0, K), so r+1 lies
// in [1, K] and wraps only at K. On CPUs with AVX2 the whole 16-register
// blocks run in the vector kernel (tick_amd64.s) and the rest in tick;
// elsewhere tick runs alone.
func (p *Protocol) ApplyUniformFlat(st []int64) { tickWith(tickVector, st, int64(p.x.K)) }

// tickVector is the vector tick, set at package init where the CPU has
// one: tick for len(st) a multiple of 16. Nil elsewhere.
var tickVector func(st []int64, k int64)

// tickWith ticks the whole 16-register blocks of st with vec, unless vec
// is nil, and the rest with tick.
func tickWith(vec func(st []int64, k int64), st []int64, k int64) {
	if vec != nil {
		n := len(st) &^ 15
		vec(st[:n], k)
		st = st[n:]
	}
	tick(st, k)
}

// tick is the portable uniform tick: (r+1−K)>>63 is all ones below K and
// 0 at K, and masking r+1 with it is the tick without a branch. Four
// registers per iteration, then the tail.
func tick(st []int64, k int64) {
	i := 0
	for ; i+4 <= len(st); i += 4 {
		s := st[i : i+4 : i+4]
		r0, r1, r2, r3 := s[0]+1, s[1]+1, s[2]+1, s[3]+1
		s[0] = r0 & ((r0 - k) >> 63)
		s[1] = r1 & ((r1 - k) >> 63)
		s[2] = r2 & ((r2 - k) >> 63)
		s[3] = r3 & ((r3 - k) >> 63)
	}
	for ; i < len(st); i++ {
		r := st[i] + 1
		st[i] = r & ((r - k) >> 63)
	}
}

var _ sim.Uniform = (*Protocol)(nil)

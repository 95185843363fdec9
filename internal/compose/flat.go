package compose

// Flat composition (sim.Flat, DESIGN.md §6). The product packs component
// A's words and component B's words side by side in each vertex record —
// [a₀ … a_{Wa−1} b₀ … b_{Wb−1}] — and hands each component the same
// packed array with a shifted base offset. Projection therefore costs
// nothing: the stride/base calling convention of sim.Flat was designed
// exactly so that composite records need no copying.
//
// The capability is conditional (the sim flat-provider hook): the product
// is flat exactly when both components are flat. The batch kernels
// translate component rule pairs through the table New fills once and
// never writes again, which is what makes them safe under the engine's
// shard-parallel step.

import (
	"sync"

	"specstab/internal/sim"
)

// Flat implements the sim flat-capability hook.
func (p *Product[A, B]) Flat() (sim.Flat[Pair[A, B]], bool) {
	fa, fb := sim.FlatOf(p.a), sim.FlatOf(p.b)
	if fa == nil || fb == nil {
		return nil, false
	}
	pf := &productFlat[A, B]{p: p, fa: fa, fb: fb, wa: fa.FlatWords(), wb: fb.FlatWords()}
	pf.scratch.New = func() any { return &prodScratch{} }
	return pf, true
}

// productFlat is the product's packed codec.
type productFlat[A, B comparable] struct {
	p      *Product[A, B]
	fa     sim.Flat[A]
	fb     sim.Flat[B]
	wa, wb int

	// Pooled per-batch scratch: the batch kernels are invoked from
	// concurrent shards, so scratch is never shared.
	scratch sync.Pool
}

// prodScratch holds one batch invocation's working set.
type prodScratch struct {
	ra, rb   []sim.Rule // per-vertex component rules
	vsA, vsB []int      // compacted firing vertices per component
	rcA, rcB []sim.Rule // their rules, aligned with vsA/vsB
	posA     []int      // batch positions of vsA entries
	posB     []int
	outA     []int64 // component apply staging
	outB     []int64
}

// FlatWords implements sim.Flat: the concatenated record width.
func (pf *productFlat[A, B]) FlatWords() int { return pf.wa + pf.wb }

// EncodeState implements sim.Flat.
func (pf *productFlat[A, B]) EncodeState(v int, s Pair[A, B], dst []int64) {
	pf.fa.EncodeState(v, s.First, dst[:pf.wa])
	pf.fb.EncodeState(v, s.Second, dst[pf.wa:pf.wa+pf.wb])
}

// DecodeState implements sim.Flat.
func (pf *productFlat[A, B]) DecodeState(v int, src []int64) Pair[A, B] {
	return Pair[A, B]{
		First:  pf.fa.DecodeState(v, src[:pf.wa]),
		Second: pf.fb.DecodeState(v, src[pf.wa:pf.wa+pf.wb]),
	}
}

// DecodeStates implements sim.Flat (the batch shadow refresh).
func (pf *productFlat[A, B]) DecodeStates(st []int64, stride, base int, vs []int, cfg sim.Config[Pair[A, B]]) {
	for _, v := range vs {
		rec := st[v*stride+base:]
		cfg[v] = Pair[A, B]{
			First:  pf.fa.DecodeState(v, rec[:pf.wa]),
			Second: pf.fb.DecodeState(v, rec[pf.wa:pf.wa+pf.wb]),
		}
	}
}

// EnabledRuleFlat implements sim.Flat: both component kernels run over
// the shared packed array (B at base offset +Wa), and the rule pairs are
// translated through the interned table.
func (pf *productFlat[A, B]) EnabledRuleFlat(st []int64, stride, base int, vs []int, rules []sim.Rule) {
	s := pf.scratch.Get().(*prodScratch)
	s.ra = grow(s.ra, len(vs))
	s.rb = grow(s.rb, len(vs))
	pf.fa.EnabledRuleFlat(st, stride, base, vs, s.ra)
	pf.fb.EnabledRuleFlat(st, stride, base+pf.wa, vs, s.rb)
	for i := range vs {
		if s.ra[i] == sim.NoRule && s.rb[i] == sim.NoRule {
			rules[i] = sim.NoRule
			continue
		}
		rules[i] = pf.p.internRule(s.ra[i], s.rb[i])
	}
	pf.scratch.Put(s)
}

// ApplyFlat implements sim.Flat: every record is first carried over
// unchanged, then each component's firing subset is applied compactly and
// its words scattered back — so a vertex firing only one component keeps
// the other component's words verbatim, exactly as the generic Apply.
func (pf *productFlat[A, B]) ApplyFlat(st []int64, stride, base int, vs []int, rules []sim.Rule, out []int64, outStride, outBase int) {
	w := pf.wa + pf.wb
	s := pf.scratch.Get().(*prodScratch)
	s.vsA, s.rcA, s.posA = s.vsA[:0], s.rcA[:0], s.posA[:0]
	s.vsB, s.rcB, s.posB = s.vsB[:0], s.rcB[:0], s.posB[:0]
	for i, v := range vs {
		copy(out[i*outStride+outBase:i*outStride+outBase+w], st[v*stride+base:v*stride+base+w])
		ra, rb := pf.p.DecodeRule(rules[i])
		if ra != sim.NoRule {
			s.vsA = append(s.vsA, v)
			s.rcA = append(s.rcA, ra)
			s.posA = append(s.posA, i)
		}
		if rb != sim.NoRule {
			s.vsB = append(s.vsB, v)
			s.rcB = append(s.rcB, rb)
			s.posB = append(s.posB, i)
		}
	}
	if len(s.vsA) > 0 {
		s.outA = grow(s.outA, len(s.vsA)*pf.wa)
		pf.fa.ApplyFlat(st, stride, base, s.vsA, s.rcA, s.outA, pf.wa, 0)
		for j, i := range s.posA {
			copy(out[i*outStride+outBase:i*outStride+outBase+pf.wa], s.outA[j*pf.wa:(j+1)*pf.wa])
		}
	}
	if len(s.vsB) > 0 {
		s.outB = grow(s.outB, len(s.vsB)*pf.wb)
		pf.fb.ApplyFlat(st, stride, base+pf.wa, s.vsB, s.rcB, s.outB, pf.wb, 0)
		for j, i := range s.posB {
			copy(out[i*outStride+outBase+pf.wa:i*outStride+outBase+w], s.outB[j*pf.wb:(j+1)*pf.wb])
		}
	}
	pf.scratch.Put(s)
}

var _ sim.Flat[Pair[int, int]] = (*productFlat[int, int])(nil)

// grow returns buf resized to length k, reallocating only when the
// capacity is insufficient (contents are overwritten by the caller).
func grow[T any](buf []T, k int) []T {
	if cap(buf) < k {
		return make([]T, k)
	}
	return buf[:k]
}

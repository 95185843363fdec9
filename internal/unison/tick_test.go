package unison

import (
	"math"
	"slices"
	"testing"

	"specstab/internal/clock"
	"specstab/internal/sim"
)

// TestUniformTickPathsMatchApplyFlat checks each path of the uniform tick
// on its own against ApplyFlat with NA: the vector kernel with the
// portable tail (skipped only where the CPU lacks AVX2) and the portable
// loop alone, which is all that runs elsewhere. Slices of 0 to 70
// registers start at offsets 0 to 3 of a larger slice, so the vector body
// sees unaligned starts and up to four blocks before a tail of every
// length; the registers around the slice must stay untouched. st[i] =
// (r + i) mod K for every r ∈ [0, K) on small clocks and for the 72
// values at each end of [0, K) on large ones, so the K−1 wrap lands on
// every position. K runs from 2 to MaxInt64, where r+1 − K is the most
// negative difference the kernel forms.
func TestUniformTickPathsMatchApplyFlat(t *testing.T) {
	t.Parallel()
	paths := []struct {
		name string
		vec  func(st []int64, k int64)
	}{{"vector", tickVector}, {"portable", nil}}
	for _, k := range []int64{2, 3, 6, 200, 1<<62 + 3, math.MaxInt64 - 1, math.MaxInt64} {
		p := &Protocol{x: clock.MustNew(1, int(k))} // ApplyFlat reads only the clock
		for _, path := range paths {
			if path.name == "vector" && path.vec == nil {
				t.Logf("no AVX2 on this CPU: vector kernel skipped")
				continue
			}
			checkTickPath(t, p, k, func(st []int64) { tickWith(path.vec, st, k) }, path.name)
		}
	}
}

func checkTickPath(t *testing.T, p *Protocol, k int64, kernel func(st []int64), name string) {
	t.Helper()
	const maxLen, pad = 70, 4
	rs := make([]int64, 0, 2*72)
	for r := int64(0); r < min(k, 72); r++ {
		rs = append(rs, r)
	}
	for r := max(k-72, 72); r < k; r++ {
		rs = append(rs, r)
	}
	vs := make([]int, maxLen)
	rules := make([]sim.Rule, maxLen)
	for i := range vs {
		vs[i], rules[i] = i, RuleNA
	}
	buf := make([]int64, maxLen+2*pad)
	want := make([]int64, maxLen)
	for size := 0; size <= maxLen; size++ {
		for off := 0; off < pad; off++ {
			for _, r := range rs {
				for i := range buf {
					buf[i] = -int64(i) - 1 // sentinels outside the slice
				}
				st := buf[off : off+size]
				for i := range st {
					st[i] = addMod(r, int64(i), k)
				}
				p.ApplyFlat(st, 1, 0, vs[:size], rules[:size], want, 1, 0)
				before := slices.Clone(buf)
				kernel(st)
				if !slices.Equal(st, want[:size]) {
					t.Fatalf("%s tick, K=%d, offset %d: %v ticks to %v, ApplyFlat gives %v",
						name, k, off, before[off:off+size], st, want[:size])
				}
				if !slices.Equal(buf[:off], before[:off]) || !slices.Equal(buf[off+size:], before[off+size:]) {
					t.Fatalf("%s tick, K=%d, offset %d, %d registers: wrote outside the slice", name, k, off, size)
				}
			}
		}
	}
}

// addMod returns (r + i) mod k for r ∈ [0, k) and i ≥ 0, without
// overflow at k near MaxInt64.
func addMod(r, i, k int64) int64 {
	d := i % k
	if d < k-r {
		return r + d
	}
	return d - (k - r)
}

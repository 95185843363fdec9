package check

import (
	"fmt"
	"math"

	"specstab/internal/sim"
)

// space is the dense state index both checkers run on: a mixed-radix
// numbering of the product of the vertex domains. Vertex v's position in
// its domain is digit v, with vertex 0 the least significant, so index i
// runs over the configurations in the order of an odometer turning vertex
// 0 fastest, and a plain loop from 0 to total-1 enumerates them all.
type space[S comparable] struct {
	domains [][]S
	pos     []map[S]int32 // pos[v][s] is s's position in domains[v]
	stride  []int32       // stride[v] is the index weight of digit v
	total   int
}

// newSpace indexes the product of domain(0) … domain(n-1), refusing more
// than maxConfigs configurations (0 means defaultMaxConfigs). Indices are
// int32, so no space exceeds math.MaxInt32 configurations.
func newSpace[S comparable](n int, domain func(int) []S, maxConfigs int) (*space[S], error) {
	if maxConfigs == 0 {
		maxConfigs = defaultMaxConfigs
	}
	maxConfigs = min(maxConfigs, math.MaxInt32)
	sp := &space[S]{
		domains: make([][]S, n),
		pos:     make([]map[S]int32, n),
		stride:  make([]int32, n),
		total:   1,
	}
	for v := 0; v < n; v++ {
		d := domain(v)
		if len(d) == 0 {
			return nil, fmt.Errorf("check: empty domain for vertex %d", v)
		}
		if sp.total > maxConfigs/len(d) {
			return nil, fmt.Errorf("%w: more than %d configurations", ErrTooLarge, maxConfigs)
		}
		sp.domains[v] = d
		sp.pos[v] = make(map[S]int32, len(d))
		for i, s := range d {
			sp.pos[v][s] = int32(i)
		}
		sp.stride[v] = int32(sp.total)
		sp.total *= len(d)
	}
	return sp, nil
}

// decode writes configuration i into c and its digits into digits.
func (sp *space[S]) decode(i int32, c sim.Config[S], digits []int32) {
	for v, d := range sp.domains {
		k := i % int32(len(d))
		i /= int32(len(d))
		digits[v] = k
		c[v] = d[k]
	}
}

// shift is the index change when vertex v moves from digit to state s;
// ok is false when s lies outside v's domain.
func (sp *space[S]) shift(v int, digit int32, s S) (d int32, ok bool) {
	k, ok := sp.pos[v][s]
	return (k - digit) * sp.stride[v], ok
}

// fire evaluates one synchronous round of p at c without changing it: it
// returns the enabled vertices in increasing order and, for each, the
// state its enabled rule produces. Both slices reuse the given backing
// arrays.
func fire[S comparable](p sim.Protocol[S], c sim.Config[S], enabled []int, next []S) ([]int, []S) {
	enabled, next = enabled[:0], next[:0]
	for v := 0; v < p.N(); v++ {
		if r, ok := p.EnabledRule(c, v); ok {
			enabled = append(enabled, v)
			next = append(next, p.Apply(c, v, r))
		}
	}
	return enabled, next
}

package sim_test

// Fuzzing the flat codecs over packed words: for unison, dijkstra and
// bfstree the per-vertex state is one int64 word and the guards are total
// over arbitrary integers (out-of-cherry unison values reset via RA,
// dijkstra and min+1 only compare/copy), so *any* word vector is a valid
// configuration image. The fuzzer therefore drives raw words straight
// into the packed array and asserts the two codec laws the conformance
// suite checks on random-but-domain configurations:
//
//   - Encode ∘ Decode identity on every packed word;
//   - guard and apply agreement between the batch kernels and the generic
//     EnabledRule/Apply on the decoded configuration.
//
// The three fuzzed words (a, b, c) lay out the ring as r_v = a + v·b +
// (v mod 2)·c, so short seeds reach the kernels' fast paths too: b = c = 0
// is an all-equal configuration (every unison vertex NA-enabled through
// the equality early-out), b = 1 or c = ±1 puts neighbours at ±1, and
// a = K−1, c = −(K−1) alternates the K−1 ↔ 0 wrap.
//
// `go test` runs the seed corpus; `go test -run '^$' -fuzz
// FuzzFlatEncodeDecode ./internal/sim` explores further (CI runs it for a
// bounded time).

import (
	"testing"

	"specstab/internal/bfstree"
	"specstab/internal/dijkstra"
	"specstab/internal/graph"
	"specstab/internal/sim"
	"specstab/internal/unison"
)

// fuzzWordBound keeps raw words inside a range where the kernels' ±1 and
// modular arithmetic cannot overflow int64 (the protocols' real domains
// are tiny by comparison; the slack exercises the out-of-domain guard
// branches such as unison's RA reset).
const fuzzWordBound = int64(1) << 40

// fuzzK is the unison clock size on the fuzzed 8-ring (MinimalParams:
// K = n + 1), which the wrap seeds straddle.
const fuzzK = 9

// fuzzTargets builds the one-word protocols under fuzz, once.
func fuzzTargets(tb testing.TB) map[string]sim.Protocol[int] {
	tb.Helper()
	ring := graph.Ring(8)
	grid := graph.Grid(3, 3)
	uni, err := unison.New(ring, unison.MinimalParams(ring))
	if err != nil {
		tb.Fatal(err)
	}
	return map[string]sim.Protocol[int]{
		"unison":   uni,
		"dijkstra": dijkstra.MustNew(8, 9),
		"bfstree":  bfstree.MustNew(grid, 2),
	}
}

func FuzzFlatEncodeDecode(f *testing.F) {
	f.Add(int64(0), int64(0), int64(0))
	f.Add(int64(1), int64(-1), int64(7))
	f.Add(int64(42), int64(1<<20), int64(-9))
	f.Add(int64(-5), int64(163), int64(164))
	// All-correct unison neighbourhoods: all equal, ±1 neighbours, and the
	// K−1 ↔ 0 wrap.
	f.Add(int64(4), int64(0), int64(0))
	f.Add(int64(fuzzK-1), int64(0), int64(0))
	f.Add(int64(2), int64(0), int64(1))
	f.Add(int64(3), int64(0), int64(-1))
	f.Add(int64(0), int64(1), int64(0))
	f.Add(int64(fuzzK-1), int64(0), int64(1-fuzzK))
	f.Add(int64(0), int64(0), int64(fuzzK-1))
	targets := fuzzTargets(f)
	if k := targets["unison"].(*unison.Protocol).Clock().K; k != fuzzK {
		f.Fatalf("unison clock on the fuzzed ring has K=%d, the wrap seeds assume %d", k, fuzzK)
	}

	f.Fuzz(func(t *testing.T, a, b, c int64) {
		words := []int64{a % fuzzWordBound, b % fuzzWordBound, c % fuzzWordBound}
		for name, p := range targets {
			fl := sim.FlatOf(p)
			if fl == nil {
				t.Fatalf("%s lost its flat codec", name)
			}
			n := p.N()
			st := make([]int64, n)
			for v := 0; v < n; v++ {
				st[v] = words[0] + int64(v)*words[1] + int64(v%2)*words[2]
			}
			// Law 1: Encode ∘ Decode is the identity on packed words.
			cfg := make(sim.Config[int], n)
			re := make([]int64, 1)
			for v := 0; v < n; v++ {
				cfg[v] = fl.DecodeState(v, st[v:v+1])
				fl.EncodeState(v, cfg[v], re)
				if re[0] != st[v] {
					t.Fatalf("%s: vertex %d word %d re-encodes to %d", name, v, st[v], re[0])
				}
			}
			// Law 2: batch guard agreement with the generic path.
			vs := make([]int, n)
			for v := range vs {
				vs[v] = v
			}
			rules := make([]sim.Rule, n)
			fl.EnabledRuleFlat(st, 1, 0, vs, rules)
			var firing []int
			var frules []sim.Rule
			for v := 0; v < n; v++ {
				r, ok := p.EnabledRule(cfg, v)
				if !ok {
					r = sim.NoRule
				}
				if rules[v] != r {
					t.Fatalf("%s: guard of vertex %d (word %d) diverges: flat %d vs generic %d",
						name, v, st[v], rules[v], r)
				}
				if r != sim.NoRule {
					firing = append(firing, v)
					frules = append(frules, r)
				}
			}
			if len(firing) == 0 {
				continue
			}
			// Law 2 continued: apply agreement on every enabled vertex.
			next := make([]int64, len(firing))
			fl.ApplyFlat(st, 1, 0, firing, frules, next, 1, 0)
			for i, v := range firing {
				want := p.Apply(cfg, v, frules[i])
				if got := fl.DecodeState(v, next[i:i+1]); got != want {
					t.Fatalf("%s: apply of vertex %d rule %d diverges: flat %v vs generic %v",
						name, v, frules[i], got, want)
				}
			}
		}
	})
}

package sim

import "math/rand"

// LazySource is a rand.Source64 that yields exactly the stream of
// rand.NewSource(seed) but seeds only at its first draw. A generator handed
// to a consumer that never draws (a deterministic daemon, a topology
// constructor that takes no randomness) then never pays for seeding, and
// its 4.9 KB state is allocated only at that first draw. The zero value is
// the stream of seed 0.
//
// The generator is math/rand's own: an additive lagged-Fibonacci register
// of 607 words with tap 273, Int63 = Uint64 with the sign bit cleared. Only
// the seeding differs in how it computes the same state. math/rand walks
// one Park–Miller chain x ← 48271·x mod (2³¹−1) for 1,841 serial Schrage
// divisions; word i of the register is x₂₁₊₃ᵢ<<40 ^ x₂₂₊₃ᵢ<<20 ^ x₂₃₊₃ᵢ ^
// cooked[i]. Here the three terms of each word come from three interleaved
// chains that each advance by 48271³ with one Mersenne fold per step, so
// the multiplications overlap and no division remains: about a third of
// rand.NewSource's seeding time.
type LazySource struct {
	seed      int64
	seeded    bool
	tap, feed int
	vec       *[rngLen]int64 // nil until the first draw
}

const (
	rngLen  = 607
	rngTap  = 273
	rngMask = 1<<63 - 1
	// parkMiller is the prime modulus 2³¹−1 of math/rand's seeding chain
	// and parkMillerA its multiplier.
	parkMiller  = 1<<31 - 1
	parkMillerA = 48271
	// seedFallback replaces a seed ≡ 0 (mod 2³¹−1), a fixed point of the
	// chain, as math/rand does.
	seedFallback = 89482311
)

var (
	// chainLead is 48271²¹: the chain's first 20 values are discarded and
	// word 0 starts at the 21st. chainStride is 48271³, one word's worth
	// of chain steps.
	chainLead   = mulPow(1, 21)
	chainStride = mulPow(1, 3)
	// cooked is math/rand's table of pre-drawn values the seeding chain
	// is XORed with (rngCooked in math/rand, unexported). It is recovered
	// from the first rngLen outputs of rand.NewSource(1) by running the
	// register backwards, then removing seed 1's chain terms.
	cooked = recoverCooked()
)

// NewLazySource returns a source with the stream of rand.NewSource(seed).
func NewLazySource(seed int64) *LazySource { return &LazySource{seed: seed} }

// Int63 implements rand.Source.
func (s *LazySource) Int63() int64 { return int64(s.Uint64() & rngMask) }

// Uint64 implements rand.Source64.
func (s *LazySource) Uint64() uint64 {
	if !s.seeded {
		s.fill()
	}
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// Seed implements rand.Source: the stream restarts from seed, again
// without seeding anything until the next draw.
func (s *LazySource) Seed(seed int64) {
	s.seed = seed
	s.seeded = false
}

// fill seeds the register from s.seed, allocating it on first use.
func (s *LazySource) fill() {
	if s.vec == nil {
		s.vec = new([rngLen]int64)
	}
	seedRegister(s.vec, s.seed, cooked)
	s.tap, s.feed = 0, rngLen-rngTap
	s.seeded = true
}

// seedRegister writes the register math/rand's Seed(seed) would with
// table in place of its cooked values (recoverCooked passes zeros to get
// the bare chain terms).
func seedRegister(vec *[rngLen]int64, seed int64, table *[rngLen]int64) {
	seed %= parkMiller
	if seed < 0 {
		seed += parkMiller
	}
	if seed == 0 {
		seed = seedFallback
	}
	a := mulMod(uint64(seed), chainLead)
	b := mulMod(a, parkMillerA)
	c := mulMod(b, parkMillerA)
	for i := range vec {
		vec[i] = int64(a)<<40 ^ int64(b)<<20 ^ int64(c) ^ table[i]
		a, b, c = mulMod(a, chainStride), mulMod(b, chainStride), mulMod(c, chainStride)
	}
}

// mulMod returns x·y mod 2³¹−1 for x, y < 2³¹: the product fits 62 bits,
// and one fold of its high bits onto its low ones leaves it below 2·(2³¹−1).
func mulMod(x, y uint64) uint64 {
	t := x * y
	t = t&parkMiller + t>>31
	if t >= parkMiller {
		t -= parkMiller
	}
	return t
}

// mulPow returns x·48271ᵏ mod 2³¹−1.
func mulPow(x uint64, k int) uint64 {
	for ; k > 0; k-- {
		x = mulMod(x, parkMillerA)
	}
	return x
}

// recoverCooked inverts math/rand's register. Draw j (from 0) adds the
// tap word 606−j into the feed word (333−j) mod 607 and returns the sum.
// In the first 607 draws every word is fed exactly once; the tap word is
// still the seeded one for j < 273 and is draw j−273's output afterwards.
// So the seeded word at feed(j) is out[j] − out[j−273] for j ≥ 273, and
// out[j] − seeded[606−j] below, where 606−j is a word fed at j+334 ≥ 273.
func recoverCooked() *[rngLen]int64 {
	src := rand.NewSource(1).(rand.Source64)
	var out, seeded, chain [rngLen]int64
	for j := range out {
		out[j] = int64(src.Uint64())
	}
	feed := func(j int) int { return (rngLen - rngTap - 1 - j + rngLen) % rngLen }
	for j := rngTap; j < rngLen; j++ {
		seeded[feed(j)] = out[j] - out[j-rngTap]
	}
	for j := 0; j < rngTap; j++ {
		seeded[feed(j)] = out[j] - seeded[rngLen-1-j]
	}
	seedRegister(&chain, 1, new([rngLen]int64))
	table := new([rngLen]int64)
	for i := range table {
		table[i] = seeded[i] ^ chain[i]
	}
	return table
}

package sim

import "math/rand"

// LazySource is a rand.Source64 that yields exactly the stream of
// rand.NewSource(seed) but builds and seeds that source only at its first
// draw. Seeding math/rand fills a 607-word table, which costs more than
// many steps of a small engine; a generator handed to a consumer that
// never draws (a deterministic daemon, a topology constructor that takes
// no randomness) then never pays for it. The zero value is the stream of
// seed 0.
type LazySource struct {
	seed int64
	src  rand.Source64
}

// NewLazySource returns a source with the stream of rand.NewSource(seed).
func NewLazySource(seed int64) *LazySource { return &LazySource{seed: seed} }

// source returns the underlying generator, seeding it on first use.
func (s *LazySource) source() rand.Source64 {
	if s.src == nil {
		s.src = rand.NewSource(s.seed).(rand.Source64)
	}
	return s.src
}

// Int63 implements rand.Source.
func (s *LazySource) Int63() int64 { return s.source().Int63() }

// Uint64 implements rand.Source64.
func (s *LazySource) Uint64() uint64 { return s.source().Uint64() }

// Seed implements rand.Source: the stream restarts from seed, again
// without seeding anything until the next draw.
func (s *LazySource) Seed(seed int64) {
	s.seed = seed
	s.src = nil
}

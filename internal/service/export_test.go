package service

// PrivList exposes the maintained privilege list to the external tests,
// which check it against a sweep of the lock's predicate.
func (s *Sim) PrivList() []int { return s.privList }

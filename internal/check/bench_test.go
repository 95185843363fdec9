package check

import (
	"testing"

	"specstab/internal/core"
	"specstab/internal/graph"
)

// The two checkers on E8's ring-3 instance (15³ = 3375 configurations),
// with the options E8 passes.

func BenchmarkSyncWorstRing3(b *testing.B) {
	p := core.MustNew(graph.Ring(3))
	opt := SyncOptions[int]{
		Domain:  func(int) []int { return p.Clock().Values() },
		Safe:    p.SafeME,
		Legit:   p.Legitimate,
		Horizon: p.ServiceWindow(),
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := SyncWorst[int](p, opt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExhaustiveRing3(b *testing.B) {
	p := core.MustNew(graph.Ring(3))
	opt := Options[int]{
		Domain:       func(int) []int { return p.Clock().Values() },
		Legit:        p.Legitimate,
		Safe:         p.SafeME,
		CheckClosure: true,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Exhaustive[int](p, opt); err != nil {
			b.Fatal(err)
		}
	}
}

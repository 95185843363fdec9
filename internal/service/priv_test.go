package service_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"specstab/internal/core"
	"specstab/internal/daemon"
	"specstab/internal/dijkstra"
	"specstab/internal/graph"
	"specstab/internal/lexclusion"
	"specstab/internal/service"
	"specstab/internal/sim"
)

// TestPrivilegeListMatchesSweep: the privilege list the Sim patches over
// each step's dirty set equals a full sweep of the lock's predicate after
// every tick, across live fault bursts, for every lock under sd, central
// and distributed daemons. The 40-vertex rings keep central and sparse
// distributed steps below the engine's dense-refresh threshold, so ticks
// patch the list in place when few privileges flip on a short list and
// rebuild it from the flags when many flip on a long one (Dijkstra from a
// random start, where most vertices hold a privilege); sd ticks from a
// random start and the bursts rebuild it by a sweep.
func TestPrivilegeListMatchesSweep(t *testing.T) {
	t.Parallel()
	const n = 40
	ring := graph.Ring(n)
	locks := []struct {
		name     string
		lock     service.Lock
		capacity int
	}{
		{"ssme", core.MustNew(ring), 1},
		{"dijkstra", dijkstra.MustNew(n, n), 1},
		{"lexclusion", lexclusion.MustNew(ring, 2), 2},
	}
	daemons := []struct {
		name string
		mk   func() sim.Daemon[int]
	}{
		{"sd", func() sim.Daemon[int] { return daemon.NewSynchronous[int]() }},
		{"central", func() sim.Daemon[int] { return daemon.NewRandomCentral[int]() }},
		{"distributed", func() sim.Daemon[int] { return daemon.NewDistributed[int](0.1) }},
	}
	patched, rebuilt := 0, 0
	for _, lc := range locks {
		for _, dc := range daemons {
			for _, opts := range []sim.Options{{Workers: 1}, {Workers: 4, ShardSize: 2}} {
				name := fmt.Sprintf("%s/%s/w%d", lc.name, dc.name, opts.Workers)
				initial := sim.RandomConfig[int](lc.lock, rand.New(rand.NewSource(5)))
				s, err := service.New(lc.lock, dc.mk(), initial, 5, service.MustClosedLoop(n, 2*n, 0, 3),
					service.Options{Capacity: lc.capacity, Hold: 2, Engine: opts})
				if err != nil {
					t.Fatal(err)
				}
				sparse := false
				s.Engine().AddHook(func(info sim.StepInfo) { sparse = info.Dirty != nil })
				var before []int
				checkPrivileges(t, name+"/start", lc.lock, s)
				for tick := 1; tick <= 600; tick++ {
					if tick%200 == 0 {
						if err := s.InjectBurst(tick / 40); err != nil {
							t.Fatal(err)
						}
						checkPrivileges(t, fmt.Sprintf("%s/burst@%d", name, tick), lc.lock, s)
					}
					before = append(before[:0], s.PrivList()...)
					sparse = false
					if _, err := s.Tick(); err != nil {
						t.Fatal(err)
					}
					if flips := symmetricDifference(before, s.PrivList()); sparse && flips > 0 {
						if flips*len(before) <= n {
							patched++
						} else {
							rebuilt++
						}
					}
					checkPrivileges(t, fmt.Sprintf("%s/tick %d", name, tick), lc.lock, s)
				}
			}
		}
	}
	if patched == 0 || rebuilt == 0 {
		t.Fatalf("sparse ticks patched the privilege list %d times and rebuilt it %d times; both must occur", patched, rebuilt)
	}
}

// symmetricDifference returns the number of entries in exactly one of the
// increasing lists a and b.
func symmetricDifference(a, b []int) int {
	d := 0
	for _, v := range a {
		if _, ok := slices.BinarySearch(b, v); !ok {
			d++
		}
	}
	for _, v := range b {
		if _, ok := slices.BinarySearch(a, v); !ok {
			d++
		}
	}
	return d
}

// checkPrivileges fails t unless s's privilege list and count equal a
// sweep of lock.Privileged over the engine's configuration.
func checkPrivileges(t *testing.T, name string, lock service.Lock, s *service.Sim) {
	t.Helper()
	c := s.Engine().Current()
	var want []int
	for v := range c {
		if lock.Privileged(c, v) {
			want = append(want, v)
		}
	}
	if got := s.PrivList(); !slices.Equal(got, want) && len(got)+len(want) > 0 {
		t.Fatalf("%s: privilege list %v, sweep %v", name, got, want)
	}
	if s.PrivilegedCount() != len(want) {
		t.Fatalf("%s: PrivilegedCount %d, sweep %d", name, s.PrivilegedCount(), len(want))
	}
}

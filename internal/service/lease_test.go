package service

import (
	"math/rand"
	"testing"

	"specstab/internal/daemon"
	"specstab/internal/dijkstra"
	"specstab/internal/sim"
)

// killed is the vanished-client injector: it wraps a closed-loop
// population and dooms its first k clients — once granted they never
// release (an infinite hold through the HoldTimer capability) and never
// rejoin the population after their grant ends.
type killed struct {
	*ClosedLoop
	k int32
}

// Completed implements Workload: a doomed client's completion is the
// lease reclaiming its vertex, not a release, and it does not come back.
func (w killed) Completed(client int32, v int32, t int64, rng *rand.Rand) {
	if client >= w.k {
		w.ClosedLoop.Completed(client, v, t, rng)
	}
}

// HoldTicks implements HoldTimer: doomed clients hold forever; everyone
// else defers to the configured hold.
func (w killed) HoldTicks(client int32, _ *rand.Rand) int64 {
	if client < w.k {
		return -1
	}
	return 0
}

// leaseSim builds a small token ring serving a closed-loop population with
// the first two clients doomed (acquire, then vanish without releasing).
func leaseSim(t *testing.T, lease int) *Sim {
	t.Helper()
	p := dijkstra.MustNew(8, 9)
	wl := killed{ClosedLoop: MustClosedLoop(8, 16, 0, 2), k: 2}
	s, err := New(p, daemon.NewSynchronous[int](), make(sim.Config[int], 8), 11, wl,
		Options{Hold: 1, Capacity: 1, Lease: lease})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestLeaseReclaimsVanishedClients is the lease-expiry contract: a client
// that acquires and disappears must lose the lock after the lease horizon,
// and the privilege rotation must keep granting to the live population.
func TestLeaseReclaimsVanishedClients(t *testing.T) {
	t.Parallel()
	s := leaseSim(t, 25)
	if _, err := s.Run(1000); err != nil {
		t.Fatal(err)
	}
	mid := s.Grants()
	if _, err := s.Run(1000); err != nil {
		t.Fatal(err)
	}
	if got := s.LeaseExpired(); got != 2 {
		t.Errorf("lease reclaims = %d, want exactly 2 (one per doomed client)", got)
	}
	if s.Grants()-mid < 50 {
		t.Errorf("rotation stalled despite leases: only %d grants in the second half", s.Grants()-mid)
	}
	if s.Backlog() > 14 {
		t.Errorf("backlog %d exceeds the 14 live clients — reclaimed vertices are not serving", s.Backlog())
	}
}

// TestNoLeaseStallsOnVanishedClient pins the failure mode the lease bound
// exists for: with no lease, the first doomed client's infinite hold keeps
// the capacity slot busy forever and the grant stream stops dead.
func TestNoLeaseStallsOnVanishedClient(t *testing.T) {
	t.Parallel()
	s := leaseSim(t, 0)
	if _, err := s.Run(1000); err != nil {
		t.Fatal(err)
	}
	mid := s.Grants()
	if _, err := s.Run(1000); err != nil {
		t.Fatal(err)
	}
	if s.LeaseExpired() != 0 {
		t.Errorf("lease reclaims = %d without a lease", s.LeaseExpired())
	}
	if got := s.Grants() - mid; got != 0 {
		t.Errorf("expected a dead stall without leases, got %d grants in the second half", got)
	}
}

// TestLeaseLongHoldTruncated covers the other truncation arm: a live
// client whose requested hold exceeds the lease keeps the section exactly
// Lease ticks, counted as a reclaim.
func TestLeaseLongHoldTruncated(t *testing.T) {
	t.Parallel()
	p := dijkstra.MustNew(8, 9)
	s, err := New(p, daemon.NewSynchronous[int](), make(sim.Config[int], 8), 11,
		MustClosedLoop(8, 8, 0, 1),
		Options{Hold: 40, Capacity: 1, Lease: 10})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(500); err != nil {
		t.Fatal(err)
	}
	if s.LeaseExpired() == 0 {
		t.Error("hold 40 under lease 10: every grant should be truncated, none recorded")
	}
	if s.Grants()-s.LeaseExpired() > 1 {
		t.Errorf("reclaims %d lag grants %d by more than the one in-flight section", s.LeaseExpired(), s.Grants())
	}
}

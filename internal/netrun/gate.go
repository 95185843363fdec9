package netrun

// The grant gate: one node's shard of the grant discipline. Queues,
// outstanding grants, lease expiry and the ascending grant pass are
// internal/service's Adapter, the code service.Sim ticks, run here over
// committed rounds with the peers' frame-carried grant counts as external
// occupancy (see the safety note on step). The gate adds what the network
// needs: tokens, reply channels, waiter deadlines and the safety
// counters. HTTP handlers touch only the mutex-guarded queue state; the
// configuration is read by the round loop alone, so the gate never races
// the replica.

import (
	"fmt"
	"math"
	"sync"

	"specstab/internal/service"
	"specstab/internal/sim"
)

// waiter is one parked acquire. The reply channel is buffered and a
// waiter is answered exactly when it leaves the queue — granted, timed
// out or drained — so it receives at most one reply, and a canceled
// handler, whose waiter is dropped unanswered, leaks nothing.
type waiter struct {
	deadline int64 // round after which the wait times out
	ch       chan AcquireReply
}

// gate serializes grant decisions for one node's shard.
type gate struct {
	// Immutable after construction.
	id, nodes, n int
	lo, hi       int
	capacity     int
	lease        int64
	lock         service.Lock
	legit        service.Legitimizer // nil when the lock declares none

	mu       sync.Mutex
	round    int64
	draining bool
	adapter  *service.Adapter[*waiter, string] // grants carry their token
	priv     []int                             // the shard's privileged vertices, per step

	grants       int64
	released     int64
	leaseExpired int64
	unsafeGrants int64
	unsafePost   int64
	legitRound   int64
}

func newGate(id, nodes, n, lo, hi, capacity int, lease int64, lock service.Lock) *gate {
	g := &gate{
		id: id, nodes: nodes, n: n, lo: lo, hi: hi,
		capacity: capacity, lease: lease, lock: lock,
		adapter:    service.NewAdapter[*waiter, string](lo, hi, capacity),
		priv:       make([]int, 0, hi-lo),
		legitRound: -1,
	}
	g.legit, _ = lock.(service.Legitimizer)
	return g
}

// acquire parks a request. A nil waiter means the reply is immediate
// (wrong owner, draining, bad lock name); otherwise the caller must wait
// on w.ch and cancel on abandonment.
func (g *gate) acquire(req AcquireRequest) (AcquireReply, *waiter) {
	v, err := ResolveLock(req.Lock, g.n)
	if err != nil {
		return AcquireReply{Vertex: -1, Node: g.id, Reason: err.Error()}, nil
	}
	if owner := nodeOf(g.n, g.nodes, v); owner != g.id {
		return AcquireReply{Vertex: v, Node: owner, Reason: "not-owner"}, nil
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.draining {
		return AcquireReply{Vertex: v, Node: g.id, Round: g.round, Reason: "draining"}, nil
	}
	wait := int64(req.WaitRounds)
	if wait <= 0 {
		wait = DefaultWaitRounds
	}
	deadline := g.round + wait
	if deadline < g.round {
		deadline = math.MaxInt64 // saturate: a huge wait never times out
	}
	w := &waiter{deadline: deadline, ch: make(chan AcquireReply, 1)}
	g.adapter.Push(v, w)
	return AcquireReply{}, w
}

// cancel abandons a parked waiter (client disconnected); one already
// answered is gone from the queue, and nothing happens.
func (g *gate) cancel(w *waiter) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.adapter.Filter(func(_ int, q *waiter) bool { return q != w })
}

// release returns a token. An unknown token is a refusal, not an HTTP
// error: the lease may already have reclaimed it, which the client
// should treat as having lost the lock.
func (g *gate) release(req ReleaseRequest) ReleaseReply {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.adapter.Release(func(tok string) bool { return tok == req.Token }) {
		g.released++
		return ReleaseReply{Released: true, Round: g.round}
	}
	return ReleaseReply{Released: false, Round: g.round, Reason: "unknown token (lease expired?)"}
}

// drain stops admission and fails every parked waiter; the round loop
// exits once the remaining grants are released or reclaimed.
func (g *gate) drain() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.draining = true
	g.adapter.Filter(func(v int, w *waiter) bool {
		w.ch <- AcquireReply{Vertex: v, Node: g.id, Round: g.round, Reason: "draining"}
		return false
	})
}

// idle reports whether nothing is held or parked — the drain exit
// condition.
func (g *gate) idle() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.adapter.Active()) == 0 && g.adapter.Waiting() == 0
}

// activeCount is the node's contribution to its round frames.
func (g *gate) activeCount() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.adapter.Active())
}

// step runs the gate for one committed round. cfg is the round's decoded
// configuration (read-only here; the round loop owns it) and peerActive
// the per-peer grant counts carried by this round's frames.
//
// Safety: grants require a locally privileged vertex and spare capacity
// under local-plus-reported occupancy. The reported half lags one round,
// so two nodes can over-grant only while the configuration exposes more
// privileges than the capacity — exactly the not-yet-stabilized window
// the unsafeGrants counters measure, and exactly the speculation bet of
// the paper: after convergence a capacity-1 ring has one privilege, one
// eligible node, and no race. The unsafePost counter (unsafe grants
// after the first legitimate round) is the invariant the acceptance and
// smoke tests pin to zero.
func (g *gate) step(round int64, cfg sim.Config[int], peerActive []uint32) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.round = round
	if g.legit != nil && g.legitRound < 0 && g.legit.Legitimate(cfg) {
		g.legitRound = round
	}
	// The exact global privilege count — computable locally because every
	// node holds the full replica — is the safety observer, O(n) per
	// round, which the modest rings lockd targets afford. The same sweep
	// collects the shard's privileged vertices, ascending.
	priv := 0
	g.priv = g.priv[:0]
	for v := 0; v < g.n; v++ {
		if g.lock.Privileged(cfg, v) {
			priv++
			if v >= g.lo && v < g.hi {
				g.priv = append(g.priv, v)
			}
		}
	}
	// Reclaim expired leases before counting occupancy.
	g.adapter.Expire(round, func(service.Grant[string]) { g.leaseExpired++ })
	external := 0
	for _, a := range peerActive {
		external += int(a)
	}
	g.adapter.Issue(g.priv, external, func(v int, w *waiter) (int64, string) {
		g.grants++
		tok := fmt.Sprintf("%d.%d.%d", g.id, v, g.grants)
		leaseRound := round + g.lease
		if priv > g.capacity {
			g.unsafeGrants++
			if g.legitRound >= 0 {
				g.unsafePost++
			}
		}
		w.ch <- AcquireReply{
			Granted: true, Token: tok, Vertex: v, Node: g.id,
			Round: round, LeaseRound: leaseRound,
		}
		return leaseRound, tok
	})
	// Time out stale waiters after the grant pass, so a grant and an
	// expiry in the same round resolve in the waiter's favor.
	g.adapter.Filter(func(v int, w *waiter) bool {
		if w.deadline > round {
			return true
		}
		w.ch <- AcquireReply{Vertex: v, Node: g.id, Round: round, Reason: "timeout"}
		return false
	})
}

// fill copies the gate's counters into a status snapshot.
func (g *gate) fill(rep *StatusReply) {
	g.mu.Lock()
	defer g.mu.Unlock()
	rep.Draining = g.draining
	rep.Backlog = g.adapter.Waiting()
	rep.Active = len(g.adapter.Active())
	rep.Grants = g.grants
	rep.Released = g.released
	rep.LeaseExpired = g.leaseExpired
	rep.UnsafeGrants = g.unsafeGrants
	rep.UnsafeGrantsPostLegit = g.unsafePost
	rep.LegitRound = g.legitRound
}

// Package service turns token privileges into a mutual-exclusion
// *service*: clients queue at the vertices of a protocol exposing
// privileges (SSME, Dijkstra's ring, ℓ-exclusion), and the grant adapter
// maps each per-step privilege set to critical-section grants with
// configurable hold times. Where the rest of the repository measures the
// protocol-internal quantities of the paper (steps, moves, rounds), this
// layer measures what Dolev & Herman's long-lived-service framing actually
// promises clients: grant latency, throughput, fairness and starvation —
// under load, and across live transient-fault storms injected into the
// running engine (sim.Engine.SetConfig).
//
// Time is measured in ticks: one tick is one engine step plus the service
// bookkeeping around it (completions, arrivals, safety observation, grant
// issue — in that fixed order, see Sim.Tick). A vertex privileged at the
// start of a tick may admit the oldest waiting client of its queue into
// the critical section, provided its own server is free and fewer than
// Capacity grants (ℓ for ℓ-exclusion, 1 for mutual exclusion) are active
// system-wide; the grant then occupies the vertex for Hold ticks.
// Privileged ticks that admit nobody are accounted as waste (empty queue)
// or contention (capacity reached), and ticks on which the protocol
// exposes more privileges than Capacity are counted as unsafe — the
// window self-stabilization cannot protect, which must close once the
// protocol re-stabilizes.
//
// Everything is deterministic for a fixed seed: the service draws all of
// its randomness (arrival processes, think times, burst targets) from one
// sequentially-consumed generator, and the engine underneath guarantees
// bitwise-identical executions for every worker count and shard size (DESIGN.md §6–§7). Service executions therefore fingerprint
// identically across -workers 1 and -workers GOMAXPROCS — asserted by the
// differential tests of this package.
package service

import (
	"errors"
	"fmt"
	"math/rand"

	"specstab/internal/sim"
)

// Lock is a protocol exposing privileges — the contract the grant adapter
// needs. SSME (internal/core), Dijkstra's ring (internal/dijkstra) and
// ℓ-exclusion (internal/lexclusion) all satisfy it.
//
// When the lock also declares sim.Local, Privileged(c, v) must read no
// state beyond v's guard read-set closure ({v} ∪ Neighbors(v)) — the Sim
// maintains the privilege set incrementally over exactly that closure.
// Every lock of this repository qualifies: SSME and ℓ-exclusion
// privileges read only r_v, and Dijkstra's privilege is its guard.
type Lock interface {
	sim.Protocol[int]
	// Privileged reports whether v may enter the critical section in c.
	Privileged(c sim.Config[int], v int) bool
}

// Legitimizer is the optional legitimacy capability of a Lock; when
// present, storms additionally report protocol-observed recovery next to
// the client-observed figures.
type Legitimizer interface {
	Legitimate(c sim.Config[int]) bool
}

// Options configures a service simulation beyond the mandatory arguments
// of New. The zero value means: 1-tick critical sections, capacity 1
// (mutual exclusion), default engine options, no lease bound.
type Options struct {
	// Hold is the critical-section hold time in ticks (default 1).
	Hold int
	// Capacity bounds the system-wide concurrent grants (default 1; set
	// ℓ for ℓ-exclusion locks).
	Capacity int
	// Lease, when > 0, bounds every grant's residence in the critical
	// section to Lease ticks regardless of the requested hold: a client
	// that acquires and disappears (an infinite hold, see HoldTimer)
	// loses the lock at the lease horizon instead of stalling the
	// privilege rotation forever. Sim.LeaseExpired counts the reclaims.
	Lease int
	// Engine configures the underlying sim.Engine (shard workers). Every choice produces the identical service execution.
	Engine sim.Options
}

// HoldTimer is an optional Workload capability: per-grant hold times. At
// grant time the service asks the workload how long the admitted client
// will occupy the critical section: 0 defers to Options.Hold, a positive
// value is the hold in ticks, and a negative value means the client never
// releases on its own (it crashed, or vanished mid-section) — without a
// lease such a grant occupies its vertex and a capacity slot forever.
type HoldTimer interface {
	HoldTicks(client int32, rng *rand.Rand) int64
}

// request is one queued critical-section request.
type request struct {
	client  int32
	arrival int64
}

// hold is what an active grant carries: the client served, and whether
// the lease bound truncated the grant (the client would have stayed
// longer, or forever) — its completion is then a reclaim, not a
// voluntary release.
type hold struct {
	client int32
	leased bool
}

// Sim drives one mutual-exclusion service execution: a Lock under a
// daemon, a client population, and the grant adapter between them.
// Not safe for concurrent use; parallelism lives inside the engine's
// shard workers and never changes the execution.
type Sim struct {
	lock Lock
	eng  *sim.Engine[int]
	wl   Workload
	rng  *rand.Rand
	n    int

	hold     int64
	lease    int64
	holdWl   HoldTimer                  // non-nil when the workload sets per-grant holds
	emit     func(client, vertex int32) // s.enqueue, bound once: Tick passes it without allocating
	capacity int

	leaseExpired int64

	// Privilege tracking, maintained incrementally when the lock declares
	// sim.Local (influenceOff != nil): after each step only the activated
	// vertices and the vertices reading them can change privilege. The
	// influence rows are the engine's own (sim.Engine.Influence).
	priv         []bool
	privList     []int
	privAlt      []int
	influenceOff []int
	influenceAdj []int
	dirty        []int
	dirtyMark    []bool

	adapter *Adapter[request, hold]

	tick int64

	// Per-vertex and (closed-loop) per-client grant counts for fairness.
	vGrants []int64
	cGrants []int32

	win, tot counters
}

// New builds a service simulation of lock under d from initial, serving
// wl. All service randomness derives from seed; engine randomness from
// seed+1 (so daemon choices and workload draws are independent streams).
func New(lock Lock, d sim.Daemon[int], initial sim.Config[int], seed int64, wl Workload, opt Options) (*Sim, error) {
	if lock == nil || d == nil || wl == nil {
		return nil, errors.New("service: lock, daemon and workload are required")
	}
	if opt.Hold == 0 {
		opt.Hold = 1
	}
	if opt.Capacity == 0 {
		opt.Capacity = 1
	}
	if opt.Hold < 1 || opt.Capacity < 1 {
		return nil, fmt.Errorf("service: hold %d and capacity %d must be ≥ 1", opt.Hold, opt.Capacity)
	}
	if opt.Lease < 0 {
		return nil, fmt.Errorf("service: lease %d must be ≥ 0 (0 disables the bound)", opt.Lease)
	}
	eng, err := sim.NewEngineWith(lock, d, initial, seed+1, opt.Engine)
	if err != nil {
		return nil, err
	}
	n := lock.N()
	s := &Sim{
		lock:     lock,
		eng:      eng,
		wl:       wl,
		rng:      rand.New(sim.NewLazySource(seed)),
		n:        n,
		hold:     int64(opt.Hold),
		lease:    int64(opt.Lease),
		capacity: opt.Capacity,
		priv:     make([]bool, n),
		adapter:  NewAdapter[request, hold](0, n, opt.Capacity),
		vGrants:  make([]int64, n),
	}
	s.emit = s.enqueue
	if c := wl.Clients(); c > 0 {
		s.cGrants = make([]int32, c)
	}
	if ht, ok := wl.(HoldTimer); ok {
		s.holdWl = ht
	}
	if s.influenceOff, s.influenceAdj = eng.Influence(); s.influenceOff != nil {
		s.dirtyMark = make([]bool, n)
	}
	s.rescanPriv()
	// Join the observer pipeline, so callers can attach traces and
	// measurements to s.Engine() without severing the privilege
	// maintenance.
	eng.AddHook(func(info sim.StepInfo) { s.refreshPriv(info.Activated) })
	return s, nil
}

// Engine returns the protocol engine underneath (read-only use).
func (s *Sim) Engine() *sim.Engine[int] { return s.eng }

// Ticks returns the number of ticks executed so far.
func (s *Sim) Ticks() int64 { return s.tick }

// Backlog returns the number of currently waiting requests.
func (s *Sim) Backlog() int64 { return int64(s.adapter.Waiting()) }

// Grants returns the total grants issued since construction.
func (s *Sim) Grants() int64 { return s.tot.grants }

// Legitimate reports the lock's legitimacy of the current configuration;
// ok is false when the lock does not expose a legitimacy predicate.
func (s *Sim) Legitimate() (legit, ok bool) {
	if lg, isLg := s.lock.(Legitimizer); isLg {
		return lg.Legitimate(s.eng.Current()), true
	}
	return false, false
}

// PrivilegedCount returns the size of the current privilege set.
func (s *Sim) PrivilegedCount() int { return len(s.privList) }

// rescanPriv rebuilds the privilege set with a full sweep.
func (s *Sim) rescanPriv() {
	c := s.eng.Current()
	s.privList = s.privList[:0]
	for v := 0; v < s.n; v++ {
		p := s.lock.Privileged(c, v)
		s.priv[v] = p
		if p {
			s.privList = append(s.privList, v)
		}
	}
}

// refreshPriv patches the privilege set after the vertices in activated
// changed state. With influence sets the dirty closure is re-evaluated and
// spliced into the sorted list by one merge pass (dense dirty sets fall
// back to the sweep) — the engine's own enabled-set strategy, applied to
// the privilege predicate.
func (s *Sim) refreshPriv(activated []int) {
	if s.influenceOff == nil || 4*len(activated) >= s.n {
		s.rescanPriv()
		return
	}
	s.dirty = s.dirty[:0]
	for _, v := range activated {
		for _, u := range s.influenceAdj[s.influenceOff[v]:s.influenceOff[v+1]] {
			if !s.dirtyMark[u] {
				s.dirtyMark[u] = true
				s.dirty = append(s.dirty, u)
			}
		}
	}
	c := s.eng.Current()
	for _, u := range s.dirty {
		s.priv[u] = s.lock.Privileged(c, u)
		s.dirtyMark[u] = false
	}
	insertionSort(s.dirty)
	out := s.privAlt[:0]
	i, j := 0, 0
	for i < len(s.privList) || j < len(s.dirty) {
		switch {
		case j == len(s.dirty) || (i < len(s.privList) && s.privList[i] < s.dirty[j]):
			out = append(out, s.privList[i])
			i++
		default:
			if i < len(s.privList) && s.privList[i] == s.dirty[j] {
				i++
			}
			if s.priv[s.dirty[j]] {
				out = append(out, s.dirty[j])
			}
			j++
		}
	}
	s.privAlt = s.privList[:0]
	s.privList = out
}

// enqueue admits one request to its vertex queue (the Workload emit
// callback).
func (s *Sim) enqueue(client int32, vertex int32) {
	s.adapter.Push(int(vertex), request{client: client, arrival: s.tick})
	s.win.requests++
	s.tot.requests++
}

// Tick executes one service tick: (1) critical sections whose hold
// expires are completed and their clients notified; (2) the workload's
// arrivals for this tick are enqueued; (3) the privilege set of the
// current configuration is observed for safety; (4) grants are issued in
// increasing vertex order; (5) the protocol executes one step. It returns
// false without error when the protocol is terminal — an anomaly for
// perpetual locks, reported rather than hidden.
func (s *Sim) Tick() (bool, error) {
	t := s.tick

	// (1) Completions (including lease reclaims of vanished clients).
	s.adapter.Expire(t, s.complete)

	// (2) Arrivals.
	s.wl.Arrivals(t, s.rng, s.emit)

	// (3) Safety observation.
	p := int64(len(s.privList))
	s.win.privTicks += p
	s.tot.privTicks += p
	if len(s.privList) > s.capacity {
		s.win.unsafeTicks++
		s.tot.unsafeTicks++
	}

	// (4) Grant issue, in increasing vertex order (deterministic).
	idle, busy := s.adapter.Issue(s.privList, 0, s.admit)
	s.win.wastedIdle += int64(idle)
	s.tot.wastedIdle += int64(idle)
	s.win.wastedBusy += int64(busy)
	s.tot.wastedBusy += int64(busy)

	// (5) Protocol step (the hook refreshes the privilege set).
	progressed, err := s.eng.Step()
	if err != nil || !progressed {
		return progressed, err
	}
	s.tick++
	s.win.ticks++
	s.tot.ticks++
	return true, nil
}

// complete ends one grant at the current tick and notifies its client.
func (s *Sim) complete(g Grant[hold]) {
	if g.Data.leased {
		s.leaseExpired++
	}
	s.wl.Completed(g.Data.client, int32(g.V), s.tick, s.rng)
}

// admit serves request r at vertex v on the current tick and prices the
// grant: the workload's per-grant hold when it declares one (negative =
// the client never releases), Options.Hold otherwise, truncated to the
// lease bound when one is set. An unleased infinite hold ends at the
// int64 horizon — effectively never, which is exactly the stall a
// missing lease buys.
func (s *Sim) admit(v int, r request) (int64, hold) {
	t := s.tick
	lat := float64(t - r.arrival)
	s.win.grant(lat)
	s.tot.grant(lat)
	s.vGrants[v]++
	if s.cGrants != nil {
		s.cGrants[r.client]++
	}
	h := s.hold
	if s.holdWl != nil {
		if ht := s.holdWl.HoldTicks(r.client, s.rng); ht != 0 {
			h = ht
		}
	}
	end := t + h
	if h < 0 {
		end = int64(1)<<62 - 1
	}
	leased := false
	if s.lease > 0 && (h < 0 || h > s.lease) {
		end = t + s.lease
		leased = true
	}
	return end, hold{client: r.client, leased: leased}
}

// LeaseExpired returns the number of grants reclaimed at the lease bound
// rather than released by their hold expiring naturally.
func (s *Sim) LeaseExpired() int64 { return s.leaseExpired }

// Run executes at most ticks service ticks, stopping early on a terminal
// protocol configuration. It returns the ticks executed by this call.
func (s *Sim) Run(ticks int) (int, error) {
	for done := 0; done < ticks; done++ {
		progressed, err := s.Tick()
		if err != nil || !progressed {
			return done, err
		}
	}
	return ticks, nil
}

// InjectBurst corrupts k registers of the running protocol in place — a
// live transient fault, drawn from the protocol's own state domains via
// RandomState, injected through the engine's SetConfig (queues, active
// grants and all service clocks survive; clients observe the aftermath).
func (s *Sim) InjectBurst(k int) error {
	if err := s.eng.SetConfig(sim.Corrupt(s.lock, s.eng.Current(), k, s.rng)); err != nil {
		return err
	}
	s.rescanPriv()
	return nil
}

// insertionSort sorts the small dirty slices of refreshPriv in place
// (they hold Δ·avg-degree elements; sort.Ints would allocate an
// interface header per call on this hot path).
func insertionSort(xs []int) {
	for i := 1; i < len(xs); i++ {
		x := xs[i]
		j := i - 1
		for j >= 0 && xs[j] > x {
			xs[j+1] = xs[j]
			j--
		}
		xs[j+1] = x
	}
}

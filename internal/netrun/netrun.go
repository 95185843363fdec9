// Package netrun is the networked runtime (DESIGN.md §13): it partitions
// the vertices of one scenario's ring across OS processes that exchange
// round frames over TCP, turning the in-process simulation into a
// deployable lock service (cmd/lockd) without forking the execution
// semantics.
//
// Every node steps the shared engine on the union selection. Each node
// owns a sim.Engine over the whole ring (core.go) but schedules only its
// own contiguous shard. A round is a BSP superstep: select activations
// among the shard's enabled vertices under the node's daemon policy,
// send one round-numbered frame carrying that selection to every peer,
// then block until one frame of the same round arrives from each peer.
// Only then does any node commit: the union of the selections is the
// round's daemon choice, and every node runs Engine.Step on it — the
// step every in-process driver runs — computing every activated
// vertex's move itself. The engine refuses a selected vertex whose guard
// is disabled, so a peer cannot make a node adopt a move; a slow or dead
// peer stalls the round but never corrupts it, and the frames' pre-round
// fingerprints make replica divergence a detected protocol error
// instead of silent drift.
//
// The deterministic simulation stays authoritative as a differential
// oracle: each node journals the effective schedule (the vertices
// activated per round) plus the per-round fingerprints, and Replay feeds
// that schedule back through scenario.Build under the recorded daemon,
// asserting a bitwise Fingerprint64 match at every step. What ran on the
// wire is exactly one execution of the paper's model, and the journal
// proves which one.
package netrun

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"strconv"
	"strings"

	"specstab/internal/scenario"
)

// Default knobs. Rounds are the logical clock of the runtime, so the
// lease is denominated in rounds, not wall time: a grant not released
// within LeaseRounds rounds is reclaimed exactly as internal/service
// reclaims a vanished client's hold.
const (
	// DefaultLeaseRounds bounds a grant's residence when Spec.LeaseRounds
	// is zero.
	DefaultLeaseRounds = 64
	// DefaultWaitRounds bounds an acquire's queue residence when the
	// client does not set one.
	DefaultWaitRounds = 4096
)

// Spec is the shared, hash-checked description of one netrun deployment:
// every node of a ring must be started from an identical Spec (the hello
// handshake enforces it), because the replicated execution is only
// meaningful when all replicas agree on the protocol, topology, seed,
// initial configuration and scheduling policy.
type Spec struct {
	// Scenario names the lock protocol, topology, seed, initial
	// configuration and daemon policy. The protocol must expose
	// privileges (ssme, dijkstra, lexclusion) and the flat capability;
	// the daemon must be sync (default) or distributed — central-family
	// daemons serialize on global state and have no shard-local form.
	Scenario *scenario.Scenario `json:"scenario"`
	// Nodes is the number of processes the ring is sharded across (≥ 2,
	// ≤ the vertex count).
	Nodes int `json:"nodes"`
	// LeaseRounds bounds every grant's residence in rounds
	// (0 = DefaultLeaseRounds; a vanished client loses its lock after
	// this many rounds without stalling the rotation).
	LeaseRounds int `json:"leaseRounds,omitempty"`
	// Capacity bounds system-wide concurrent grants (0 = 1; set it to ℓ
	// for ℓ-exclusion).
	Capacity int `json:"capacity,omitempty"`
}

// normalized returns sp with defaults resolved, validating the fields
// netrun itself owns (scenario-level validation happens in BuildLock).
func (sp Spec) normalized() (Spec, error) {
	if sp.Scenario == nil {
		return sp, fmt.Errorf("netrun: spec needs a scenario")
	}
	if sp.Nodes < 2 {
		return sp, fmt.Errorf("netrun: %d nodes — a networked run needs ≥ 2 (use the in-process drivers below that)", sp.Nodes)
	}
	if sp.LeaseRounds == 0 {
		sp.LeaseRounds = DefaultLeaseRounds
	}
	if sp.LeaseRounds < 0 {
		return sp, fmt.Errorf("netrun: lease %d rounds must be positive", sp.LeaseRounds)
	}
	if sp.Capacity == 0 {
		sp.Capacity = 1
	}
	if sp.Capacity < 0 {
		return sp, fmt.Errorf("netrun: capacity %d must be positive", sp.Capacity)
	}
	switch sp.Scenario.Daemon.Name {
	case "", "sync", "sd", "distributed", "ud":
	default:
		return sp, fmt.Errorf("netrun: daemon %q has no shard-local form (sync and distributed do)", sp.Scenario.Daemon.Name)
	}
	return sp, nil
}

// hash fingerprints the spec for the hello handshake: two nodes whose
// specs hash differently would run different executions against each
// other's frames, so the transport refuses to pair them.
func (sp Spec) hash() uint64 {
	h := fnv.New64a()
	b, err := json.Marshal(sp.Scenario)
	if err != nil {
		// Scenario is plain data; Marshal cannot fail on it. Keep the
		// hash total anyway.
		fmt.Fprintf(h, "unmarshalable:%v", err)
	}
	h.Write(b)
	fmt.Fprintf(h, "|nodes=%d|lease=%d|capacity=%d", sp.Nodes, sp.LeaseRounds, sp.Capacity)
	return h.Sum64()
}

// shardRange returns the contiguous vertex range [lo, hi) owned by node
// id of nodes over n vertices. Shards differ in size by at most one and
// concatenate in node order to [0, n) — which is why the union of the
// per-node selection lists is sorted without a sort.
func shardRange(n, nodes, id int) (lo, hi int) {
	lo = id * n / nodes
	hi = (id + 1) * n / nodes
	return lo, hi
}

// nodeOf returns the node owning vertex v under the shardRange split.
func nodeOf(n, nodes, v int) int {
	// The floor split makes ownership monotone; the closed form holds
	// because shardRange(n, nodes, id) uses floor(id*n/nodes).
	id := (v*nodes + nodes - 1) / n
	for id > 0 && v < id*n/nodes {
		id--
	}
	for id < nodes-1 && v >= (id+1)*n/nodes {
		id++
	}
	return id
}

// ResolveLock maps a client-facing lock name to the ring vertex that
// serves it: "vertex:K" addresses vertex K directly, anything else
// hashes (FNV-1a) onto [0, n). Named locks therefore spread across the
// ring — and across nodes — without coordination.
func ResolveLock(name string, n int) (int, error) {
	if name == "" {
		return 0, fmt.Errorf("netrun: empty lock name")
	}
	if rest, ok := strings.CutPrefix(name, "vertex:"); ok {
		v, err := strconv.Atoi(rest)
		if err != nil || v < 0 || v >= n {
			return 0, fmt.Errorf("netrun: lock %q addresses no vertex in [0, %d)", name, n)
		}
		return v, nil
	}
	h := fnv.New64a()
	h.Write([]byte(name))
	return int(h.Sum64() % uint64(n)), nil
}

package netrun

// The round core: one node's half of the round protocol, with no
// sockets, no clock and no goroutines. It owns a sim.Engine over the
// whole ring — the engine every in-process driver and Replay step — and
// a unionDaemon that hands the engine the round's union selection, so
// the wire runs the same Engine.Step the differential tests cover.
// Node.Run (node.go) drives it from the pumps: propose, fan the frame
// out, collect every peer's frame, commit. A test drives N cores in one
// goroutine by passing frames between them.

import (
	"fmt"
	"io"
	"math/rand"
	"sort"

	"specstab/internal/scenario"
	"specstab/internal/sim"
)

// unionDaemon is a node engine's daemon: Select appends the round's
// union selection, which commit installs just before stepping. The
// engine rejects a selected vertex that is not enabled, so a peer that
// claims a move its guard does not allow fails the commit.
type unionDaemon struct{ sel []int }

// Name implements sim.Daemon.
func (d *unionDaemon) Name() string { return "netrun-union" }

// Select implements sim.Daemon.
func (d *unionDaemon) Select(_ sim.Config[int], _ []int, _ *rand.Rand, dst []int) []int {
	return append(dst, d.sel...)
}

// roundCore is one node's round state: the engine, the selection
// policy and coin, the last committed round and fingerprint, the grant
// gate and the journal.
type roundCore struct {
	id, nodes, n int
	lo, hi       int
	policyDist   bool
	p            float64
	rng          *rand.Rand // node-local selection coin (distributed policy)

	eng   *sim.Engine[int]
	union unionDaemon
	round int64  // last committed round
	fp    uint64 // fingerprint after round

	gate *gate
	jw   *journalWriter

	// Reused per-round buffers: out is this node's frame, active the
	// peers' grant counts.
	out    Frame
	active []uint32
}

// newRoundCore builds node id's core for a normalized spec, journaling
// to sink (nil keeps only the in-memory journal).
func newRoundCore(spec Spec, id int, sink io.Writer) (*roundCore, error) {
	if id < 0 || id >= spec.Nodes {
		return nil, fmt.Errorf("netrun: node id %d outside [0, %d)", id, spec.Nodes)
	}
	_, lock, initial, err := scenario.BuildLock(spec.Scenario)
	if err != nil {
		return nil, err
	}
	n := len(initial)
	if spec.Nodes > n {
		return nil, fmt.Errorf("netrun: %d nodes over %d vertices leaves empty shards", spec.Nodes, n)
	}
	c := &roundCore{
		id:     id,
		nodes:  spec.Nodes,
		n:      n,
		rng:    rand.New(sim.NewLazySource(spec.Scenario.Seed + 1000003*int64(id+1))),
		active: make([]uint32, 0, spec.Nodes),
	}
	c.lo, c.hi = shardRange(n, spec.Nodes, id)
	switch spec.Scenario.Daemon.Name {
	case "distributed", "ud":
		c.policyDist = true
		c.p = spec.Scenario.Daemon.P
		if c.p <= 0 || c.p > 1 {
			c.p = 0.5
		}
	}
	c.eng, err = sim.NewEngineWith[int](lock, &c.union, initial, spec.Scenario.Seed, sim.Options{Workers: 1})
	if err != nil {
		return nil, err
	}
	c.union.sel = make([]int, 0, n)
	c.out = Frame{Kind: KindRound, Round: RoundFrame{Node: uint32(id), Sel: make([]uint32, 0, c.hi-c.lo)}}
	c.fp = sim.FingerprintConfig(c.eng.Current())
	c.gate = newGate(id, spec.Nodes, n, c.lo, c.hi, spec.Capacity, int64(spec.LeaseRounds), lock)
	c.jw, err = newJournalWriter(Header{
		Kind:     "header",
		Scenario: spec.Scenario,
		Nodes:    spec.Nodes,
		Node:     id,
		Lease:    spec.LeaseRounds,
		Capacity: spec.Capacity,
		InitFP:   fpString(c.fp),
	}, sink)
	if err != nil {
		return nil, err
	}
	return c, nil
}

// propose returns this node's frame for the next round. It selects from
// the engine's enabled vertices in the shard, ascending: all of them
// under the synchronous policy, an independent p-coin each under the
// distributed policy — with the lowest enabled vertex as fallback, so a
// node with work always contributes at least one activation and the
// ring-wide union is nonempty whenever any guard is enabled (a valid
// unfair-daemon schedule either way). The frame is overwritten by the
// next propose.
func (c *roundCore) propose() *Frame {
	en := c.eng.Enabled()
	en = en[sort.SearchInts(en, c.lo):sort.SearchInts(en, c.hi)]
	rf := &c.out.Round
	sel := rf.Sel[:0]
	for _, v := range en {
		if !c.policyDist || c.rng.Float64() < c.p {
			sel = append(sel, uint32(v))
		}
	}
	if len(sel) == 0 && len(en) > 0 {
		sel = append(sel, uint32(en[0]))
	}
	rf.Round, rf.PrevFP, rf.Sel = uint64(c.round+1), c.fp, sel
	rf.Active = uint32(c.gate.activeCount())
	return &c.out
}

// commit executes the next round from every node's frame, indexed by
// node id (this node's own included). Each frame must be of this round,
// enter from this node's fingerprint and select only vertices of its
// sender's shard; the engine then steps on the union of the selections
// — the shards concatenate in node order, so the union is ascending —
// and rejects a selected vertex that is not enabled. The committed
// configuration is fingerprinted, journaled and handed to the gate.
// terminal reports an empty union: no vertex is enabled anywhere, and
// nothing was committed.
func (c *roundCore) commit(frames []*RoundFrame) (terminal bool, err error) {
	r := c.round + 1
	union := c.union.sel[:0]
	for j, f := range frames {
		switch {
		case int(f.Node) != j:
			return false, fmt.Errorf("netrun: frame from peer %d claims node %d", j, f.Node)
		case f.Round != uint64(r):
			return false, fmt.Errorf("netrun: peer %d sent round %d during round %d — barrier broken", j, f.Round, r)
		case f.PrevFP != c.fp:
			return false, fmt.Errorf("netrun: replica divergence at round %d: peer %d entered with fingerprint %016x, this node %016x", r, j, f.PrevFP, c.fp)
		}
		jlo, jhi := shardRange(c.n, c.nodes, j)
		for _, v32 := range f.Sel {
			v := int(v32)
			if v < jlo || v >= jhi {
				return false, fmt.Errorf("netrun: peer %d activated vertex %d outside its shard [%d, %d)", j, v, jlo, jhi)
			}
			union = append(union, v)
		}
	}
	c.union.sel = union
	if len(union) == 0 {
		// Unreachable for deadlock-free locks, but never journal a round
		// the engine could not replay.
		return true, nil
	}
	progressed, err := c.eng.Step()
	if err != nil {
		return false, fmt.Errorf("netrun: node %d: round %d: %w", c.id, r, err)
	}
	if !progressed {
		return false, fmt.Errorf("netrun: node %d: round %d activates %d vertices of a terminal configuration", c.id, r, len(union))
	}
	cfg := c.eng.Current()
	c.round, c.fp = r, sim.FingerprintConfig(cfg)
	if err := c.jw.round(r, union, c.fp); err != nil {
		return false, err
	}
	active := c.active[:0]
	for j, f := range frames {
		if j != c.id {
			active = append(active, f.Active)
		}
	}
	c.active = active
	c.gate.step(r, cfg, active)
	return false, nil
}

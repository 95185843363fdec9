package netrun

// The round core against the shard stepper it replaced. refShard is that
// stepper, kept verbatim as the reference: every node held a packed
// replica, swept its shard's guards, selected, applied the moves into a
// private buffer, and at commit copied every shard's moved words into
// the replica, decoded them and fingerprinted the whole configuration.
// The round cores run in one goroutine and exchange their frames through
// the real wire codec; every round's union and fingerprint must equal
// the reference's.

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"specstab/internal/scenario"
	"specstab/internal/sim"
)

// refShard is one node of the reference: the replica, the flat kernels
// and the shard's reusable buffers.
type refShard struct {
	lo, hi     int
	words      int
	policyDist bool
	p          float64

	flat   sim.Flat[int]
	st     []int64         // full packed replica, vertex-major
	shadow sim.Config[int] // decoded mirror
	fp     uint64
	rng    *rand.Rand

	shardVs []int
	rules   []sim.Rule
	selBuf  []int
	ruleBuf []sim.Rule
	outBuf  []int64
}

func newRefShard(t *testing.T, spec Spec, id int) *refShard {
	t.Helper()
	_, lock, initial, err := scenario.BuildLock(spec.Scenario)
	if err != nil {
		t.Fatal(err)
	}
	n := len(initial)
	flat := sim.FlatOf[int](lock)
	nd := &refShard{
		flat:  flat,
		words: flat.FlatWords(),
		rng:   rand.New(sim.NewLazySource(spec.Scenario.Seed + 1000003*int64(id+1))),
	}
	nd.lo, nd.hi = shardRange(n, spec.Nodes, id)
	switch spec.Scenario.Daemon.Name {
	case "distributed", "ud":
		nd.policyDist = true
		nd.p = spec.Scenario.Daemon.P
		if nd.p <= 0 || nd.p > 1 {
			nd.p = 0.5
		}
	}
	nd.st = make([]int64, n*nd.words)
	for v := 0; v < n; v++ {
		flat.EncodeState(v, initial[v], nd.st[v*nd.words:(v+1)*nd.words])
	}
	nd.shadow = append(sim.Config[int](nil), initial...)
	nd.fp = sim.FingerprintConfig(nd.shadow)
	shard := nd.hi - nd.lo
	nd.shardVs = make([]int, shard)
	for i := range nd.shardVs {
		nd.shardVs[i] = nd.lo + i
	}
	nd.rules = make([]sim.Rule, shard)
	nd.selBuf = make([]int, 0, shard)
	nd.ruleBuf = make([]sim.Rule, 0, shard)
	nd.outBuf = make([]int64, shard*nd.words)
	return nd
}

// evaluate sweeps, selects and applies the shard against the replica,
// returning the selection and the selected vertices' next words.
func (nd *refShard) evaluate() (sel []int, out []int64) {
	nd.flat.EnabledRuleFlat(nd.st, nd.words, 0, nd.shardVs, nd.rules)
	sel, rules, _ := nd.selectLocal()
	out = nd.outBuf[:len(sel)*nd.words]
	if len(sel) > 0 {
		nd.flat.ApplyFlat(nd.st, nd.words, 0, sel, rules, out, nd.words, 0)
	}
	return sel, out
}

// selectLocal picks this round's activations from the shard's enabled
// vertices: all of them under the synchronous policy, an independent
// p-coin each under the distributed policy — with the lowest enabled
// vertex as fallback, so a node with work always contributes at least
// one activation and the ring-wide union is nonempty whenever any guard
// is enabled (a valid unfair-daemon schedule either way).
func (nd *refShard) selectLocal() (sel []int, rules []sim.Rule, enabled int) {
	sel, rules = nd.selBuf[:0], nd.ruleBuf[:0]
	firstV, firstRule := -1, sim.NoRule
	for i, v := range nd.shardVs {
		rl := nd.rules[i]
		if rl == sim.NoRule {
			continue
		}
		enabled++
		if firstV < 0 {
			firstV, firstRule = v, rl
		}
		if !nd.policyDist || nd.rng.Float64() < nd.p {
			sel = append(sel, v)
			rules = append(rules, rl)
		}
	}
	if nd.policyDist && len(sel) == 0 && firstV >= 0 {
		sel = append(sel, firstV)
		rules = append(rules, firstRule)
	}
	nd.selBuf, nd.ruleBuf = sel, rules
	return sel, rules, enabled
}

// commit copies every shard's moved words into the replica, decodes the
// union and fingerprints the configuration.
func (nd *refShard) commit(sels [][]int, outs [][]int64, union []int) {
	for j, sel := range sels {
		for i, v := range sel {
			copy(nd.st[v*nd.words:(v+1)*nd.words], outs[j][i*nd.words:(i+1)*nd.words])
		}
	}
	nd.flat.DecodeStates(nd.st, nd.words, 0, union, nd.shadow)
	nd.fp = sim.FingerprintConfig(nd.shadow)
}

// coreRing is a ring of round cores in one goroutine. Each core's frame
// goes through AppendWireFrame and is decoded by every peer into that
// peer's scratch, as the pumps do.
type coreRing struct {
	cores   []*roundCore
	wire    [][]byte
	scratch [][]Frame       // [receiver][sender]
	frames  [][]*RoundFrame // [receiver][sender]
}

func newCoreRing(t *testing.T, spec Spec) *coreRing {
	t.Helper()
	spec, err := spec.normalized()
	if err != nil {
		t.Fatal(err)
	}
	r := &coreRing{
		cores:   make([]*roundCore, spec.Nodes),
		wire:    make([][]byte, spec.Nodes),
		scratch: make([][]Frame, spec.Nodes),
		frames:  make([][]*RoundFrame, spec.Nodes),
	}
	for i := range r.cores {
		if r.cores[i], err = newRoundCore(spec, i, nil); err != nil {
			t.Fatal(err)
		}
		r.scratch[i] = make([]Frame, spec.Nodes)
		r.frames[i] = make([]*RoundFrame, spec.Nodes)
	}
	return r
}

// propose has every core propose and puts its frame on the wire.
func (r *coreRing) propose(t *testing.T) {
	t.Helper()
	for i, c := range r.cores {
		var err error
		if r.wire[i], err = AppendWireFrame(r.wire[i][:0], c.propose()); err != nil {
			t.Fatal(err)
		}
	}
}

// deliver decodes every frame on the wire at every other core.
func (r *coreRing) deliver(t *testing.T) {
	t.Helper()
	for k := range r.cores {
		for j, w := range r.wire {
			if j == k {
				r.frames[k][j] = &r.cores[k].out.Round
				continue
			}
			if err := DecodeFrameInto(&r.scratch[k][j], w[4:]); err != nil {
				t.Fatal(err)
			}
			r.frames[k][j] = &r.scratch[k][j].Round
		}
	}
}

// TestRoundCoreMatchesShardStepper drives in-process round cores and the
// reference shard stepper in lockstep over every lock protocol, both
// selection policies and several ring splits: every round's proposals,
// union and fingerprint must agree, and every core's journal must
// replay.
func TestRoundCoreMatchesShardStepper(t *testing.T) {
	t.Parallel()
	const rounds = 300
	protocols := []scenario.ProtocolSpec{{Name: "ssme"}, {Name: "dijkstra"}, {Name: "lexclusion", L: 2}}
	daemons := []scenario.DaemonSpec{{Name: "sync"}, {Name: "distributed", P: 0.3}}
	for _, proto := range protocols {
		for _, dmn := range daemons {
			for _, nodes := range []int{2, 3, 5} {
				for _, seed := range []int64{1, 2} {
					spec := Spec{
						Scenario: &scenario.Scenario{
							Seed:     seed,
							Protocol: proto,
							Topology: scenario.TopologySpec{Name: "ring", N: 24},
							Daemon:   dmn,
							Init:     scenario.InitSpec{Mode: "random"},
						},
						Nodes: nodes,
					}
					name := fmt.Sprintf("%s/%s/nodes%d/seed%d", proto.Name, dmn.Name, nodes, seed)
					t.Run(name, func(t *testing.T) {
						t.Parallel()
						checkCoreAgainstReference(t, spec, rounds)
					})
				}
			}
		}
	}
}

func checkCoreAgainstReference(t *testing.T, spec Spec, rounds int) {
	ring := newCoreRing(t, spec)
	refs := make([]*refShard, spec.Nodes)
	for i := range refs {
		refs[i] = newRefShard(t, spec, i)
		if refs[i].fp != ring.cores[i].fp {
			t.Fatalf("node %d: initial fingerprint %016x, reference %016x", i, ring.cores[i].fp, refs[i].fp)
		}
	}
	sels := make([][]int, spec.Nodes)
	outs := make([][]int64, spec.Nodes)
	for r := 1; r <= rounds; r++ {
		ring.propose(t)
		var union []int
		for i, ref := range refs {
			sels[i], outs[i] = ref.evaluate()
			union = append(union, sels[i]...)
			got := ring.cores[i].out.Round.Sel
			if len(got) != len(sels[i]) {
				t.Fatalf("round %d node %d: proposed %v, reference %v", r, i, got, sels[i])
			}
			for k, v := range sels[i] {
				if int(got[k]) != v {
					t.Fatalf("round %d node %d: proposed %v, reference %v", r, i, got, sels[i])
				}
			}
		}
		for _, ref := range refs {
			ref.commit(sels, outs, union)
		}
		ring.deliver(t)
		for i, c := range ring.cores {
			terminal, err := c.commit(ring.frames[i])
			if err != nil {
				t.Fatalf("round %d node %d: %v", r, i, err)
			}
			if terminal {
				t.Fatalf("round %d node %d: terminal", r, i)
			}
			if !reflect.DeepEqual(c.union.sel, union) {
				t.Fatalf("round %d node %d: union %v, reference %v", r, i, c.union.sel, union)
			}
			if c.fp != refs[i].fp {
				t.Fatalf("round %d node %d: fingerprint %016x, reference %016x", r, i, c.fp, refs[i].fp)
			}
		}
	}
	for i, c := range ring.cores {
		res, err := Replay(c.jw.journal())
		if err != nil {
			t.Fatalf("node %d journal: %v", i, err)
		}
		if res.Rounds != rounds || res.FinalFP != c.fp {
			t.Fatalf("node %d replay summary %+v", i, res)
		}
	}
}

// TestRoundCoreRefusesForgedFrames forges node 1's round-1 frame in the
// ways a diverged or broken peer could, and requires node 0's commit to
// refuse each one without committing anything. A selected vertex of the
// sender's own shard whose guard is disabled is refused by the engine
// step itself: a peer can no longer make a node adopt a move.
func TestRoundCoreRefusesForgedFrames(t *testing.T) {
	t.Parallel()
	spec := ringSpec(5, "sync")
	spec.Nodes = 2
	probe := newCoreRing(t, spec)
	c1 := probe.cores[1]
	disabled := -1
	enabled := c1.eng.Enabled()
	for v := c1.hi - 1; v >= c1.lo; v-- {
		if !slices.Contains(enabled, v) {
			disabled = v
			break
		}
	}
	if disabled < 0 {
		t.Fatal("node 1's shard has no disabled vertex to forge a move for")
	}
	cases := []struct {
		name   string
		forge  func(f *RoundFrame)
		target error
	}{
		{"disabled-vertex", func(f *RoundFrame) { f.Sel = append(f.Sel[:0], uint32(disabled)) }, sim.ErrDaemonSelection},
		{"disabled-vertex-added", func(f *RoundFrame) {
			f.Sel = append(f.Sel, uint32(disabled))
			slices.Sort(f.Sel)
		}, sim.ErrDaemonSelection},
		{"outside-shard", func(f *RoundFrame) { f.Sel = append([]uint32{0}, f.Sel...) }, nil},
		{"prev-fp", func(f *RoundFrame) { f.PrevFP ^= 1 }, nil},
		{"round", func(f *RoundFrame) { f.Round++ }, nil},
		{"node", func(f *RoundFrame) { f.Node = 0 }, nil},
	}
	for _, tc := range cases {
		ring := newCoreRing(t, spec)
		ring.propose(t)
		ring.deliver(t)
		c0 := ring.cores[0]
		fp := c0.fp
		tc.forge(ring.frames[0][1])
		_, err := c0.commit(ring.frames[0])
		if err == nil {
			t.Errorf("%s: forged frame %+v committed", tc.name, *ring.frames[0][1])
			continue
		}
		if tc.target != nil && !errors.Is(err, tc.target) {
			t.Errorf("%s: error %v, want %v", tc.name, err, tc.target)
		}
		if c0.round != 0 || c0.fp != fp || c0.eng.Steps() != 0 || len(c0.jw.recs) != 0 {
			t.Errorf("%s: refused round left state behind: round %d, steps %d", tc.name, c0.round, c0.eng.Steps())
		}
	}
}

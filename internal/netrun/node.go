package netrun

// Node is one process of the ring. It owns a full packed replica of the
// configuration, the flat kernels of the lock protocol, a contiguous
// vertex shard, the peer connections, the grant gate and the journal.
// Run drives the BSP round loop documented on the package; everything
// here is wall-clock-free — the transport (transport.go) and the client
// server (httpd.go) own the clocks.

import (
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync/atomic"
	"time"

	"specstab/internal/scenario"
	"specstab/internal/service"
	"specstab/internal/sim"
	"specstab/internal/telemetry"
)

// Config wires one Node. Spec must be identical across the ring; the
// addresses are per-node.
type Config struct {
	// ID is this node's index in [0, Spec.Nodes).
	ID int
	// Spec is the ring-wide deployment description.
	Spec Spec
	// ListenPeer is the peer listen address ("127.0.0.1:0" picks a port;
	// read it back with PeerAddr after Start).
	ListenPeer string
	// PeerAddrs are the peer listen addresses indexed by node id (the
	// entry at ID is ignored). Leave nil and call SetPeerAddrs before
	// Connect when ports are dynamic.
	PeerAddrs []string
	// ListenClient is the client HTTP address; empty disables the client
	// API (a pure replication node).
	ListenClient string
	// Journal, when non-nil, receives the JSONL journal as it is written
	// (the in-memory copy is always kept).
	Journal io.Writer
	// Hub, when non-nil, receives one telemetry sample per committed
	// round.
	Hub *telemetry.Hub
	// IOTimeout overrides the per-frame read/write deadline (0 = 2s).
	IOTimeout time.Duration
	// DialRetries and DialBackoff bound connection establishment
	// (0 = 40 tries, 25ms linear backoff).
	DialRetries int
	DialBackoff time.Duration
	// RecvRetries is how many consecutive receive timeouts the barrier
	// tolerates per peer per round before abandoning the run (0 = 5).
	// Until then a slow peer holds the round — it is never committed
	// partially.
	RecvRetries int
	// Pace, when positive, sleeps between rounds; load tests leave it
	// zero and let the ring free-run.
	Pace time.Duration
}

// Node is one running member of the ring. Construct with NewNode, then
// Start (bind), Connect (mesh + handshake), Run (round loop).
type Node struct {
	cfg        Config
	spec       Spec
	id, nodes  int
	n, lo, hi  int
	words      int
	policyDist bool
	p          float64

	lock   service.Lock
	flat   sim.Flat[int]
	st     []int64         // full packed replica, vertex-major
	shadow sim.Config[int] // decoded mirror, round loop only
	fp     uint64          // fingerprint after the last committed round
	rng    *rand.Rand      // node-local selection coin (distributed policy)

	// Reused per-round buffers (round loop only). frameScratch is the
	// node's own contribution; framesBuf/unionBuf/activeBuf are the
	// commit's working set, hoisted here so the steady-state round loop
	// never allocates.
	shardVs      []int
	rules        []sim.Rule
	selBuf       []int
	ruleBuf      []sim.Rule
	sel32        []uint32
	outBuf       []int64
	frameScratch Frame
	framesBuf    []*RoundFrame
	unionBuf     []int
	activeBuf    []uint32

	ln        net.Listener
	peerAddrs []string
	peers     []*Conn
	rxs       []*rxPump
	// barrierTimer is the barrier's reusable stall timer (pump.go owns
	// all Reset/Stop calls — this file stays wall-clock-free).
	barrierTimer *time.Timer

	gate *gate
	hs   *httpServer
	jw   *journalWriter

	// Published state, readable from handler goroutines.
	round    atomic.Int64
	fpPub    atomic.Uint64
	stalled  atomic.Bool
	draining atomic.Bool

	framesOut atomic.Int64
	framesIn  atomic.Int64
	stalls    atomic.Int64
	bytesOut  atomic.Int64
	bytesIn   atomic.Int64
}

// NewNode validates cfg, builds the lock and its flat kernels, and packs
// the initial replica. No sockets yet — Start binds them.
func NewNode(cfg Config) (*Node, error) {
	spec, err := cfg.Spec.normalized()
	if err != nil {
		return nil, err
	}
	if cfg.ID < 0 || cfg.ID >= spec.Nodes {
		return nil, fmt.Errorf("netrun: node id %d outside [0, %d)", cfg.ID, spec.Nodes)
	}
	_, lock, initial, err := scenario.BuildLock(spec.Scenario)
	if err != nil {
		return nil, err
	}
	n := len(initial)
	if spec.Nodes > n {
		return nil, fmt.Errorf("netrun: %d nodes over %d vertices leaves empty shards", spec.Nodes, n)
	}
	flat := sim.FlatOf[int](lock)
	if flat == nil {
		return nil, fmt.Errorf("netrun: protocol %q has no flat codec — the wire format is its packed words", spec.Scenario.Protocol.Name)
	}
	nd := &Node{
		cfg:   cfg,
		spec:  spec,
		id:    cfg.ID,
		nodes: spec.Nodes,
		n:     n,
		lock:  lock,
		flat:  flat,
		words: flat.FlatWords(),
		rng:   rand.New(sim.NewLazySource(spec.Scenario.Seed + 1000003*int64(cfg.ID+1))),
	}
	nd.lo, nd.hi = shardRange(n, spec.Nodes, cfg.ID)
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
	nd.fpPub.Store(nd.fp)
	shard := nd.hi - nd.lo
	nd.shardVs = make([]int, shard)
	for i := range nd.shardVs {
		nd.shardVs[i] = nd.lo + i
	}
	nd.rules = make([]sim.Rule, shard)
	nd.selBuf = make([]int, 0, shard)
	nd.ruleBuf = make([]sim.Rule, 0, shard)
	nd.sel32 = make([]uint32, 0, shard)
	nd.outBuf = make([]int64, shard*nd.words)
	nd.framesBuf = make([]*RoundFrame, spec.Nodes)
	nd.unionBuf = make([]int, 0, n)
	nd.activeBuf = make([]uint32, 0, spec.Nodes)
	nd.gate = newGate(nd.id, nd.nodes, n, nd.lo, nd.hi, spec.Capacity, int64(spec.LeaseRounds), lock)
	nd.peers = make([]*Conn, spec.Nodes)
	nd.peerAddrs = append([]string(nil), cfg.PeerAddrs...)
	nd.jw, err = newJournalWriter(Header{
		Kind:     "header",
		Scenario: spec.Scenario,
		Nodes:    spec.Nodes,
		Node:     cfg.ID,
		Lease:    spec.LeaseRounds,
		Capacity: spec.Capacity,
		InitFP:   fpString(nd.fp),
	}, cfg.Journal)
	if err != nil {
		return nil, err
	}
	return nd, nil
}

// Start binds the peer listener and, when configured, the client HTTP
// server.
func (nd *Node) Start() error {
	ln, err := net.Listen("tcp", nd.cfg.ListenPeer)
	if err != nil {
		return fmt.Errorf("netrun: node %d: %w", nd.id, err)
	}
	nd.ln = ln
	if nd.cfg.ListenClient != "" {
		nd.hs, err = startHTTP(nd, nd.cfg.ListenClient)
		if err != nil {
			ln.Close()
			return err
		}
	}
	return nil
}

// PeerAddr returns the bound peer address (after Start).
func (nd *Node) PeerAddr() string { return nd.ln.Addr().String() }

// ClientAddr returns the bound client address, or "" without one.
func (nd *Node) ClientAddr() string {
	if nd.hs == nil {
		return ""
	}
	return nd.hs.addr()
}

// SetPeerAddrs installs the peer address table (index = node id) when it
// was not known at construction.
func (nd *Node) SetPeerAddrs(addrs []string) {
	nd.peerAddrs = append([]string(nil), addrs...)
}

// Connect establishes the full peer mesh: dial every lower id, accept
// every higher one, and exchange spec-hash-checked hellos both ways. The
// convention is deadlock-free across processes because listeners are
// bound before any dial and TCP accepts queue.
func (nd *Node) Connect() error {
	if len(nd.peerAddrs) != nd.nodes {
		return fmt.Errorf("netrun: node %d has %d peer addresses for %d nodes", nd.id, len(nd.peerAddrs), nd.nodes)
	}
	timeout := nd.cfg.IOTimeout
	if timeout <= 0 {
		timeout = defaultIOTimeout
	}
	retries, backoff := nd.cfg.DialRetries, nd.cfg.DialBackoff
	if retries <= 0 {
		retries = defaultDialRetries
	}
	if backoff <= 0 {
		backoff = defaultDialBackoff
	}
	// The accept patience matches the worst-case dial budget of the
	// slowest-starting peer.
	patience := time.Duration(retries)*(time.Duration(retries+1)/2)*backoff + time.Duration(retries+1)*timeout
	hello := Hello{Node: uint32(nd.id), Nodes: uint32(nd.nodes), SpecHash: nd.spec.hash()}
	ours := acquireWire()
	defer ours.release()
	var err error
	ours.b, err = AppendWireFrame(ours.b, &Frame{Kind: KindHello, Hello: hello})
	if err != nil {
		return err
	}
	for j := 0; j < nd.id; j++ {
		c, err := dialPeer(nd.peerAddrs[j], retries, backoff, timeout)
		if err != nil {
			nd.closePeers()
			return err
		}
		ours.retain()
		if err := c.Send(ours); err != nil {
			nd.closePeers()
			return err
		}
		if err := nd.checkHello(c, j, hello.SpecHash, patience); err != nil {
			c.Close()
			nd.closePeers()
			return err
		}
		nd.peers[j] = c
	}
	for need := nd.nodes - 1 - nd.id; need > 0; need-- {
		c, err := acceptPeer(nd.ln, patience, timeout)
		if err != nil {
			nd.closePeers()
			return err
		}
		j, err := nd.acceptHello(c, hello.SpecHash, patience)
		if err != nil {
			c.Close()
			nd.closePeers()
			return err
		}
		ours.retain()
		if err := c.Send(ours); err != nil {
			c.Close()
			nd.closePeers()
			return err
		}
		nd.peers[j] = c
	}
	return nil
}

// checkHello reads and validates the hello a dialed peer answers with.
func (nd *Node) checkHello(c *Conn, want int, specHash uint64, patience time.Duration) error {
	h, err := nd.readHello(c, fmt.Sprintf("hello from peer %d", want), fmt.Sprintf("peer %d", want), patience)
	if err != nil {
		return err
	}
	return nd.validateHello(h, want, specHash)
}

// acceptHello reads an inbound hello and returns the peer's id.
func (nd *Node) acceptHello(c *Conn, specHash uint64, patience time.Duration) (int, error) {
	h, err := nd.readHello(c, "inbound hello", "inbound connection", patience)
	if err != nil {
		return 0, err
	}
	j := int(h.Node)
	if j <= nd.id || j >= nd.nodes {
		return 0, fmt.Errorf("netrun: inbound hello claims node %d; node %d accepts only ids in (%d, %d)", j, nd.id, nd.id, nd.nodes)
	}
	if nd.peers[j] != nil {
		return 0, fmt.Errorf("netrun: node %d connected twice", j)
	}
	return j, nd.validateHello(h, j, specHash)
}

// readHello reads a connection's opening frame and checks that it is a
// hello. what names the awaited frame and who its sender, in errors.
func (nd *Node) readHello(c *Conn, what, who string, patience time.Duration) (Hello, error) {
	p, err := c.RecvPatient(patience)
	if err != nil {
		return Hello{}, fmt.Errorf("netrun: node %d: %s: %w", nd.id, what, err)
	}
	f, err := DecodeFrame(p)
	if err != nil {
		return Hello{}, err
	}
	if f.Kind != KindHello {
		return Hello{}, fmt.Errorf("netrun: %s opened with a %s frame, not hello", who, f.Kind)
	}
	return f.Hello, nil
}

func (nd *Node) validateHello(h Hello, want int, specHash uint64) error {
	if int(h.Node) != want {
		return fmt.Errorf("netrun: expected node %d on this connection, got %d", want, h.Node)
	}
	if int(h.Nodes) != nd.nodes {
		return fmt.Errorf("netrun: peer %d runs a %d-node ring, this node a %d-node ring", want, h.Nodes, nd.nodes)
	}
	if h.SpecHash != specHash {
		return fmt.Errorf("netrun: peer %d was started from a different spec (hash %016x, ours %016x) — refusing to mix executions", want, h.SpecHash, specHash)
	}
	return nil
}

// Run drives the round loop until maxRounds commits (0 = unbounded), a
// drain completes, a peer says bye, or a fault breaks the barrier. Only
// a fault returns an error; the node's replica and journal are valid in
// every case. The steady-state iteration is allocation-free: the frame
// is encoded into a pooled buffer the write pumps release after the
// wire write, peer frames arrive pre-decoded in recycled scratch from
// the receive pumps, and the commit's working set lives on the Node.
func (nd *Node) Run(maxRounds int64) error {
	defer nd.closePeers()
	defer nd.jw.flush()
	nd.startPumps()
	defer nd.stopPumps()
	for {
		if nd.draining.Load() && nd.gate.idle() {
			return nd.sayBye()
		}
		r := nd.round.Load() + 1
		if maxRounds > 0 && r > maxRounds {
			return nd.sayBye()
		}

		// Evaluate, select and apply the local shard against the replica.
		nd.flat.EnabledRuleFlat(nd.st, nd.words, 0, nd.shardVs, nd.rules)
		sel, rules, enabled := nd.selectLocal()
		out := nd.outBuf[:len(sel)*nd.words]
		if len(sel) > 0 {
			nd.flat.ApplyFlat(nd.st, nd.words, 0, sel, rules, out, nd.words, 0)
		}
		nd.sel32 = nd.sel32[:0]
		for _, v := range sel {
			nd.sel32 = append(nd.sel32, uint32(v))
		}
		nd.frameScratch.Kind = KindRound
		nd.frameScratch.Round = RoundFrame{
			Round: uint64(r), Node: uint32(nd.id), Words: uint16(nd.words),
			PrevFP: nd.fp, Enabled: uint32(enabled), Active: uint32(nd.gate.activeCount()),
			Sel: nd.sel32, Data: out,
		}
		// Encode once into a pooled buffer and fan the same bytes out to
		// every write pump, one reference each; the pump that writes last
		// returns the buffer to the pool.
		w := acquireWire()
		var err error
		w.b, err = AppendWireFrame(w.b, &nd.frameScratch)
		if err != nil {
			w.release()
			return err
		}
		wire := int64(len(w.b))
		for j, c := range nd.peers {
			if c == nil {
				continue
			}
			w.retain()
			if err := c.Send(w); err != nil {
				w.release()
				nd.stalled.Store(true)
				return fmt.Errorf("netrun: node %d: sending round %d to peer %d: %w", nd.id, r, j, err)
			}
			nd.framesOut.Add(1)
			nd.bytesOut.Add(wire)
		}
		w.release()

		// Barrier: one same-round frame from every peer, or no commit.
		// The pumps decode concurrently; collecting peer j here never
		// blocks peer k's progress, so the barrier costs the max — not
		// the sum — of peer latencies.
		frames := nd.framesBuf
		frames[nd.id] = &nd.frameScratch.Round
		for j := range nd.peers {
			if j == nd.id {
				continue
			}
			f, bye, err := nd.collectRound(j, r)
			if err != nil {
				nd.stalled.Store(true)
				return err
			}
			if bye {
				// A peer shut down cleanly; the round cannot complete and
				// never will. Not a fault: stop without committing.
				nd.sayBye()
				return nil
			}
			frames[j] = f
		}

		// Commit: apply every shard's moved words, form the effective
		// schedule, refresh the shadow and fingerprint, journal, grant.
		union := nd.unionBuf[:0]
		for j, f := range frames {
			jlo, jhi := shardRange(nd.n, nd.nodes, j)
			for i, v32 := range f.Sel {
				v := int(v32)
				if v < jlo || v >= jhi {
					nd.stalled.Store(true)
					return fmt.Errorf("netrun: peer %d activated vertex %d outside its shard [%d, %d)", j, v, jlo, jhi)
				}
				copy(nd.st[v*nd.words:(v+1)*nd.words], f.Data[i*nd.words:(i+1)*nd.words])
				union = append(union, v)
			}
		}
		nd.unionBuf = union
		if len(union) == 0 {
			// The protocol is terminal (no vertex enabled anywhere) —
			// unreachable for deadlock-free locks, but never journal a
			// round the engine could not replay.
			nd.sayBye()
			return nil
		}
		nd.flat.DecodeStates(nd.st, nd.words, 0, union, nd.shadow)
		nd.fp = sim.FingerprintConfig(nd.shadow)
		nd.fpPub.Store(nd.fp)
		nd.round.Store(r)
		if err := nd.jw.round(r, union, nd.fp); err != nil {
			return err
		}
		peerActive := nd.activeBuf[:0]
		for j, f := range frames {
			if j != nd.id {
				peerActive = append(peerActive, f.Active)
			}
		}
		nd.activeBuf = peerActive
		nd.gate.step(r, nd.shadow, peerActive)
		// Hand the peers' scratch frames back to their pumps; the next
		// round (possibly already in flight) decodes into them.
		for j, f := range frames {
			if j != nd.id && nd.rxs[j] != nil {
				nd.rxs[j].recycle(f)
			}
		}
		if nd.cfg.Hub != nil {
			telemetry.SampleNetrun(nd.cfg.Hub, nd)
		}
		pace(nd.cfg.Pace)
	}
}

// startPumps launches one receive pump per peer connection and arms the
// barrier's shared stall timer.
func (nd *Node) startPumps() {
	nd.rxs = make([]*rxPump, nd.nodes)
	for j, c := range nd.peers {
		if j == nd.id || c == nil {
			continue
		}
		nd.rxs[j] = startRxPump(j, nd.words, c, &nd.bytesIn)
	}
	if nd.barrierTimer == nil {
		nd.barrierTimer = newStallTimer()
	}
}

// stopPumps halts every pump and waits them out. Closing the peer
// connections is what unblocks a pump parked in a read; Run's deferred
// closePeers runs after this, so close here too (Close is idempotent).
func (nd *Node) stopPumps() {
	for _, p := range nd.rxs {
		if p != nil {
			p.halt()
		}
	}
	nd.closePeers()
	for _, p := range nd.rxs {
		if p != nil {
			<-p.done
		}
	}
}

// selectLocal picks this round's activations from the shard's enabled
// vertices: all of them under the synchronous policy, an independent
// p-coin each under the distributed policy — with the lowest enabled
// vertex as fallback, so a node with work always contributes at least
// one activation and the ring-wide union is nonempty whenever any guard
// is enabled (a valid unfair-daemon schedule either way).
func (nd *Node) selectLocal() (sel []int, rules []sim.Rule, enabled int) {
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

// collectRound takes peer j's round-r frame from its receive pump,
// tolerating RecvRetries mailbox timeouts (each counted as a barrier
// stall) before giving up — the same patience contract the sequential
// barrier had, with the read deadline replaced by the shared stall
// timer. A bye frame reports clean peer shutdown via the second return.
//
// The sender-identity and word-count checks moved into the pump (facts
// about the frame); the round match and the PrevFP divergence check
// stay here because they are facts about *this node's* progress: a
// prefetched round-r+1 frame carries the peer's fingerprint after
// round r, which this node only knows once its own commit of round r
// has run.
func (nd *Node) collectRound(j int, r int64) (*RoundFrame, bool, error) {
	retries := nd.cfg.RecvRetries
	if retries <= 0 {
		retries = 5
	}
	p := nd.rxs[j]
	for attempt := 0; ; attempt++ {
		m, ok := p.await(nd.barrierTimer, p.c.timeout)
		if !ok {
			if attempt < retries {
				nd.stalls.Add(1)
				nd.stalled.Store(true)
				if nd.cfg.Hub != nil {
					telemetry.SampleNetrun(nd.cfg.Hub, nd)
				}
				continue
			}
			return nil, false, fmt.Errorf("netrun: node %d: barrier for round %d: peer %d: %w", nd.id, r, j, errBarrierTimeout)
		}
		if m.err != nil {
			return nil, false, fmt.Errorf("netrun: node %d: barrier for round %d: peer %d: %w", nd.id, r, j, m.err)
		}
		if m.bye {
			return nil, true, nil
		}
		rf := m.f
		if rf.Round != uint64(r) {
			return nil, false, fmt.Errorf("netrun: peer %d sent round %d during round %d — barrier broken", j, rf.Round, r)
		}
		if rf.PrevFP != nd.fp {
			return nil, false, fmt.Errorf("netrun: replica divergence at round %d: peer %d entered with fingerprint %016x, this node %016x", r, j, rf.PrevFP, nd.fp)
		}
		nd.stalled.Store(false)
		nd.framesIn.Add(1)
		return rf, false, nil
	}
}

// sayBye announces clean shutdown to every peer (best effort — a dead
// peer's error is not this node's failure) and flushes the journal's
// buffered tail.
func (nd *Node) sayBye() error {
	w := acquireWire()
	var err error
	w.b, err = AppendWireFrame(w.b, &Frame{Kind: KindBye, Bye: Bye{Node: uint32(nd.id), Round: uint64(nd.round.Load())}})
	if err != nil {
		w.release()
		return err
	}
	for _, c := range nd.peers {
		if c != nil {
			w.retain()
			_ = c.Send(w)
		}
	}
	w.release()
	return nd.jw.flush()
}

// Drain stops admitting acquires and lets Run exit once outstanding
// grants are released or reclaimed — the SIGTERM path of cmd/lockd.
func (nd *Node) Drain() {
	nd.draining.Store(true)
	nd.gate.drain()
}

// Round returns the last committed round.
func (nd *Node) Round() int64 { return nd.round.Load() }

// Journal materializes the in-memory journal. Read it after Run
// returns; the round loop appends to the backing arena concurrently
// while running.
func (nd *Node) Journal() *Journal { return nd.jw.journal() }

// Status snapshots the node for the client API.
func (nd *Node) Status() StatusReply {
	rep := StatusReply{
		Node:     nd.id,
		Nodes:    nd.nodes,
		Protocol: nd.spec.Scenario.Protocol.Name,
		N:        nd.n,
		Round:    nd.round.Load(),
		FP:       fpString(nd.fpPub.Load()),
		Stalled:  nd.stalled.Load(),
	}
	nd.gate.fill(&rep)
	return rep
}

// NetrunStats implements telemetry.NetrunSource.
func (nd *Node) NetrunStats() telemetry.NetrunStats {
	var rep StatusReply
	nd.gate.fill(&rep)
	return telemetry.NetrunStats{
		Node:            nd.id,
		Nodes:           nd.nodes,
		Round:           nd.round.Load(),
		FramesOut:       nd.framesOut.Load(),
		FramesIn:        nd.framesIn.Load(),
		BarrierStalls:   nd.stalls.Load(),
		BytesOut:        nd.bytesOut.Load(),
		BytesIn:         nd.bytesIn.Load(),
		JournalBuffered: nd.jw.buffered.Load(),
		Grants:          rep.Grants,
		Released:        rep.Released,
		LeaseExpired:    rep.LeaseExpired,
		UnsafeGrants:    rep.UnsafeGrants,
		Backlog:         rep.Backlog,
		Active:          rep.Active,
		Stalled:         nd.stalled.Load(),
	}
}

// closePeers tears down the peer mesh. Entries stay in place — Close is
// idempotent and a concurrent round loop (the kill path) must read a
// closed connection's error, not a nil pointer.
func (nd *Node) closePeers() {
	for _, c := range nd.peers {
		if c != nil {
			c.Close()
		}
	}
}

// Close releases every resource: peers, the peer listener and the client
// server.
func (nd *Node) Close() {
	nd.closePeers()
	if nd.ln != nil {
		nd.ln.Close()
	}
	if nd.hs != nil {
		nd.hs.close()
	}
}

package netrun

// Node is one process of the ring: a round core (core.go) — the engine
// over the whole ring, the grant gate and the journal — plus the peer
// connections and the client server. Run drives the BSP round loop
// documented on the package; everything here is wall-clock-free — the
// transport (transport.go), the pumps (pump.go) and the client server
// (httpd.go) own the clocks.

import (
	"fmt"
	"io"
	"net"
	"sync/atomic"
	"time"

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
	cfg       Config
	spec      Spec
	id, nodes int

	core *roundCore // round loop only, apart from its gate and journal
	// framesBuf is the commit's frame slice, indexed by node id.
	framesBuf []*RoundFrame

	ln        net.Listener
	peerAddrs []string
	peers     []*Conn
	rxs       []*rxPump
	// barrierTimer is the barrier's reusable stall timer (pump.go owns
	// all Reset/Stop calls — this file stays wall-clock-free).
	barrierTimer *time.Timer

	hs *httpServer

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

// NewNode validates cfg and builds the node's round core. No sockets
// yet — Start binds them.
func NewNode(cfg Config) (*Node, error) {
	spec, err := cfg.Spec.normalized()
	if err != nil {
		return nil, err
	}
	core, err := newRoundCore(spec, cfg.ID, cfg.Journal)
	if err != nil {
		return nil, err
	}
	nd := &Node{
		cfg:       cfg,
		spec:      spec,
		id:        cfg.ID,
		nodes:     spec.Nodes,
		core:      core,
		framesBuf: make([]*RoundFrame, spec.Nodes),
		peers:     make([]*Conn, spec.Nodes),
		peerAddrs: append([]string(nil), cfg.PeerAddrs...),
	}
	nd.fpPub.Store(core.fp)
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
	// The accept patience matches the worst-case dial budget of the
	// slowest-starting peer.
	patience := defaultDialRetries*((defaultDialRetries+1)/2)*defaultDialBackoff + (defaultDialRetries+1)*timeout
	hello := Hello{Node: uint32(nd.id), Nodes: uint32(nd.nodes), SpecHash: nd.spec.hash()}
	ours := acquireWire()
	defer ours.release()
	var err error
	ours.b, err = AppendWireFrame(ours.b, &Frame{Kind: KindHello, Hello: hello})
	if err != nil {
		return err
	}
	for j := 0; j < nd.id; j++ {
		c, err := dialPeer(nd.peerAddrs[j], defaultDialRetries, defaultDialBackoff, timeout)
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
// a fault returns an error; the node's engine and journal are valid in
// every case. The steady-state iteration is allocation-free: the frame
// is encoded into a pooled buffer the write pumps release after the
// wire write, peer frames arrive pre-decoded in recycled scratch from
// the receive pumps, and the core reuses its own buffers.
func (nd *Node) Run(maxRounds int64) error {
	defer nd.closePeers()
	defer nd.core.jw.flush()
	nd.startPumps()
	defer nd.stopPumps()
	for {
		if nd.draining.Load() && nd.core.gate.idle() {
			return nd.sayBye()
		}
		r := nd.round.Load() + 1
		if maxRounds > 0 && r > maxRounds {
			return nd.sayBye()
		}

		// Encode this node's frame once into a pooled buffer and fan the
		// same bytes out to every write pump, one reference each; the
		// pump that writes last returns the buffer to the pool.
		f := nd.core.propose()
		w := acquireWire()
		var err error
		w.b, err = AppendWireFrame(w.b, f)
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

		// Barrier: one frame from every peer, or no commit. The pumps
		// decode concurrently; collecting peer j here never blocks peer
		// k's progress, so the barrier costs the max — not the sum — of
		// peer latencies.
		frames := nd.framesBuf
		frames[nd.id] = &f.Round
		for j := range nd.peers {
			if j == nd.id {
				continue
			}
			pf, bye, err := nd.collectRound(j, r)
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
			frames[j] = pf
		}

		terminal, err := nd.core.commit(frames)
		if err != nil {
			nd.stalled.Store(true)
			return err
		}
		if terminal {
			nd.sayBye()
			return nil
		}
		nd.fpPub.Store(nd.core.fp)
		nd.round.Store(r)
		// Hand the peers' scratch frames back to their pumps; the next
		// round (possibly already in flight) decodes into them.
		for j, pf := range frames {
			if j != nd.id && nd.rxs[j] != nil {
				nd.rxs[j].recycle(pf)
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
		nd.rxs[j] = startRxPump(j, c, &nd.bytesIn)
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

// collectRound takes peer j's next frame from its receive pump,
// tolerating RecvRetries mailbox timeouts (each counted as a barrier
// stall) before giving up. A bye frame reports clean peer shutdown via
// the second return. Everything the frame claims — its sender, round,
// fingerprint and selection — is the core's to check at commit.
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
		nd.stalled.Store(false)
		nd.framesIn.Add(1)
		return m.f, false, nil
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
	return nd.core.jw.flush()
}

// Drain stops admitting acquires and lets Run exit once outstanding
// grants are released or reclaimed — the SIGTERM path of cmd/lockd.
func (nd *Node) Drain() {
	nd.draining.Store(true)
	nd.core.gate.drain()
}

// Round returns the last committed round.
func (nd *Node) Round() int64 { return nd.round.Load() }

// Journal materializes the in-memory journal. Read it after Run
// returns; the round loop appends to the backing arena concurrently
// while running.
func (nd *Node) Journal() *Journal { return nd.core.jw.journal() }

// Status snapshots the node for the client API.
func (nd *Node) Status() StatusReply {
	rep := StatusReply{
		Node:     nd.id,
		Nodes:    nd.nodes,
		Protocol: nd.spec.Scenario.Protocol.Name,
		N:        nd.core.n,
		Round:    nd.round.Load(),
		FP:       fpString(nd.fpPub.Load()),
		Stalled:  nd.stalled.Load(),
	}
	nd.core.gate.fill(&rep)
	return rep
}

// NetrunStats implements telemetry.NetrunSource.
func (nd *Node) NetrunStats() telemetry.NetrunStats {
	var rep StatusReply
	nd.core.gate.fill(&rep)
	return telemetry.NetrunStats{
		Node:            nd.id,
		Nodes:           nd.nodes,
		Round:           nd.round.Load(),
		FramesOut:       nd.framesOut.Load(),
		FramesIn:        nd.framesIn.Load(),
		BarrierStalls:   nd.stalls.Load(),
		BytesOut:        nd.bytesOut.Load(),
		BytesIn:         nd.bytesIn.Load(),
		JournalBuffered: nd.core.jw.buffered.Load(),
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

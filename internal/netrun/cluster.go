package netrun

// Cluster is the in-process multi-node harness: every node of the ring
// in one process, each with real TCP loopback transport and its own
// round-loop goroutine. The acceptance tests, examples/lockd and the
// lockd -selftest path run on it; production deployments run one Node
// per process via cmd/lockd instead. This file owns the per-node
// goroutines (speclint: goroutine-exempt; all clocks stay in
// transport.go/httpd.go).

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"specstab/internal/telemetry"
)

// ClusterConfig wires an in-process ring.
type ClusterConfig struct {
	// Spec is the ring-wide deployment description.
	Spec Spec
	// HTTP serves the client API on every node (loopback, dynamic ports).
	HTTP bool
	// Journals, when non-nil, holds one streaming sink per node (nil
	// entries allowed). A node with a sink keeps no journal in memory.
	Journals []io.Writer
	// Hub, when non-nil, receives every node's telemetry.
	Hub *telemetry.Hub
	// MaxRounds bounds every node's round loop (0 = run until drained).
	MaxRounds int64
	// IOTimeout, RecvRetries and Pace pass through to each node.
	IOTimeout   time.Duration
	RecvRetries int
	Pace        time.Duration
}

// Cluster is a running in-process ring.
type Cluster struct {
	nodes []*Node
	wg    sync.WaitGroup
	errs  []error // indexed by node, written before wg.Done
}

// StartCluster builds, binds, meshes and runs the ring. On return every
// node's round loop is live.
func StartCluster(cc ClusterConfig) (*Cluster, error) {
	spec, err := cc.Spec.normalized()
	if err != nil {
		return nil, err
	}
	c := &Cluster{nodes: make([]*Node, spec.Nodes), errs: make([]error, spec.Nodes)}
	for i := 0; i < spec.Nodes; i++ {
		cfg := Config{
			ID:          i,
			Spec:        spec,
			ListenPeer:  "127.0.0.1:0",
			IOTimeout:   cc.IOTimeout,
			RecvRetries: cc.RecvRetries,
			Pace:        cc.Pace,
			Hub:         cc.Hub,
		}
		if cc.HTTP {
			cfg.ListenClient = "127.0.0.1:0"
		}
		if i < len(cc.Journals) {
			cfg.Journal = cc.Journals[i]
		}
		nd, err := NewNode(cfg)
		if err != nil {
			c.Close()
			return nil, err
		}
		if err := nd.Start(); err != nil {
			c.Close()
			return nil, err
		}
		c.nodes[i] = nd
	}
	addrs := make([]string, spec.Nodes)
	for i, nd := range c.nodes {
		addrs[i] = nd.PeerAddr()
	}
	// Mesh concurrently: Connect blocks on accepts, so a sequential pass
	// would deadlock inside one process.
	connErrs := make([]error, spec.Nodes)
	var meshWG sync.WaitGroup
	for i, nd := range c.nodes {
		nd.SetPeerAddrs(addrs)
		meshWG.Add(1)
		go func(i int, nd *Node) {
			defer meshWG.Done()
			connErrs[i] = nd.Connect()
		}(i, nd)
	}
	meshWG.Wait()
	if err := errors.Join(connErrs...); err != nil {
		c.Close()
		return nil, err
	}
	for i, nd := range c.nodes {
		c.wg.Add(1)
		go func(i int, nd *Node) {
			defer c.wg.Done()
			c.errs[i] = nd.Run(cc.MaxRounds)
		}(i, nd)
	}
	return c, nil
}

// Node returns member i.
func (c *Cluster) Node(i int) *Node { return c.nodes[i] }

// Nodes returns the ring size.
func (c *Cluster) Nodes() int { return len(c.nodes) }

// ClientAddrs lists every node's client API address (empty strings
// without HTTP).
func (c *Cluster) ClientAddrs() []string {
	addrs := make([]string, len(c.nodes))
	for i, nd := range c.nodes {
		addrs[i] = nd.ClientAddr()
	}
	return addrs
}

// DrainAll asks every node to drain; Wait then returns once the ring
// has shut down cleanly.
func (c *Cluster) DrainAll() {
	for _, nd := range c.nodes {
		nd.Drain()
	}
}

// Wait blocks until every round loop has returned and reports the first
// fault (nil for clean drains, byes and round budgets).
func (c *Cluster) Wait() error {
	c.wg.Wait()
	for i, err := range c.errs {
		if err != nil {
			return fmt.Errorf("node %d: %w", i, err)
		}
	}
	return nil
}

// Close tears everything down (idempotent; implied by a finished Wait
// except for the client servers and listeners).
func (c *Cluster) Close() {
	for _, nd := range c.nodes {
		if nd != nil {
			nd.Close()
		}
	}
}

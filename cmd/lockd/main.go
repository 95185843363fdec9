// Command lockd is one node of the networked lock service
// (internal/netrun, DESIGN.md §13): it schedules a contiguous shard of
// the ring's vertices, exchanges selection frames with its peers over TCP
// every round, steps its engine on their union, and serves grants on named locks over HTTP/JSON
// (POST /v1/acquire, POST /v1/release, GET /v1/status). Every node of a
// deployment must be started with the same scenario flags and the same
// -peers list — the hello handshake hash-checks the spec and refuses to
// mix executions.
//
// The journal each node writes (-journal) is the run's proof obligation:
// lockd -replay feeds it back through the deterministic in-process engine
// under the recorded daemon and verifies a bitwise fingerprint match at
// every round. SIGTERM (or SIGINT) drains: no new grants are admitted,
// outstanding ones are released or reclaimed by the round lease, then the
// node says bye and exits; a second signal forces shutdown.
//
// Examples:
//
//	lockd -node 0 -peers 127.0.0.1:7101,127.0.0.1:7102,127.0.0.1:7103 -client 127.0.0.1:7111 -journal /tmp/lockd-0.jsonl
//	lockd -replay /tmp/lockd-0.jsonl
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"specstab/internal/cli"
	"specstab/internal/netrun"
	"specstab/internal/scenario"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "lockd:", err)
		os.Exit(1)
	}
}

// run is the testable entry point: flags are parsed from args and all
// output written to out. The signal hookup is the only part main keeps.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("lockd", flag.ContinueOnError)
	fs.SetOutput(out)
	var (
		replayPath = fs.String("replay", "", "verify a journal against the in-process engine and exit")
		node       = fs.Int("node", -1, "this node's id in [0, nodes)")
		peersCSV   = fs.String("peers", "", "comma-separated peer addresses indexed by node id (the entry at -node is this node's peer listen address)")
		client     = fs.String("client", "", "client API listen address (empty = no client API, a pure replication node)")
		protocol   = fs.String("protocol", "dijkstra", "lock protocol: ssme, dijkstra, lexclusion")
		topology   = fs.String("topology", "ring", "topology: "+cli.Topologies)
		n          = fs.Int("n", 12, "number of vertices (≥ nodes)")
		kval       = fs.Int("k", 0, "dijkstra's counter-state count (0 = n)")
		lval       = fs.Int("l", 2, "concurrency level ℓ (lexclusion only)")
		initMode   = fs.String("init", "", "initial configuration: protocol default, random, zero, uniform, worst, clean")
		daemonName = fs.String("daemon", "sync", "shard-local daemon policy: sync, distributed")
		prob       = fs.Float64("p", 0.5, "activation probability of the distributed policy")
		rounds     = fs.Int64("rounds", 0, "stop after this many committed rounds (0 = run until drained)")
		lease      = fs.Int("lease", 0, "grant lease in rounds (0 = 64); an unreleased grant is reclaimed after this many rounds")
		capacity   = fs.Int("capacity", 0, "system-wide concurrent grant bound (0 = 1; set ℓ for lexclusion)")
		journal    = fs.String("journal", "", "stream the JSONL round journal to this file (verifiable with -replay)")
		ioTimeout  = fs.Duration("io-timeout", 2*time.Second, "per-frame read/write deadline")
		recvRetry  = fs.Int("recv-retries", 0, "consecutive barrier timeouts tolerated per peer per round before faulting (0 = 5)")
		paceEvery  = fs.Duration("pace", 0, "sleep between rounds (0 = free-run)")
		common     = cli.AddCommon(fs)
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *replayPath != "" {
		return runReplay(*replayPath, out)
	}

	peers := splitPeers(*peersCSV)
	if len(peers) < 2 {
		return fmt.Errorf("-peers needs at least 2 comma-separated addresses (got %q)", *peersCSV)
	}
	if *node < 0 || *node >= len(peers) {
		return fmt.Errorf("-node %d outside [0, %d) — the id indexes the -peers list", *node, len(peers))
	}
	hub, err := common.StartTelemetry(out)
	if err != nil {
		return err
	}

	sc := &scenario.Scenario{
		Name:     "lockd",
		Seed:     common.Seed,
		Protocol: scenario.ProtocolSpec{Name: *protocol, K: *kval, L: *lval},
		Topology: scenario.TopologySpec{Name: *topology, N: *n},
		Daemon:   scenario.DaemonSpec{Name: *daemonName, P: *prob},
		Engine:   common.EngineSpec(),
		Init:     scenario.InitSpec{Mode: *initMode},
	}
	cfg := netrun.Config{
		ID: *node,
		Spec: netrun.Spec{
			Scenario:    sc,
			Nodes:       len(peers),
			LeaseRounds: *lease,
			Capacity:    *capacity,
		},
		ListenPeer:   peers[*node],
		PeerAddrs:    peers,
		ListenClient: *client,
		Hub:          hub,
		IOTimeout:    *ioTimeout,
		RecvRetries:  *recvRetry,
		Pace:         *paceEvery,
	}
	if *journal != "" {
		jf, err := os.Create(*journal)
		if err != nil {
			return err
		}
		defer jf.Close()
		cfg.Journal = jf
	}

	nd, err := netrun.NewNode(cfg)
	if err != nil {
		return err
	}
	if err := nd.Start(); err != nil {
		return err
	}
	defer nd.Close()

	fmt.Fprintf(out, "lockd: node %d of %d, %s on %s n=%d, lease %s, capacity %s\n",
		*node, len(peers), *protocol, *topology, *n, orDefault(*lease, netrun.DefaultLeaseRounds), orDefault(*capacity, 1))
	fmt.Fprintf(out, "lockd: peer listener on %s%s\n", nd.PeerAddr(), clientNote(nd.ClientAddr()))

	// First signal drains (grants settle, then a clean bye); a second
	// forces the sockets shut, which faults the round loop out.
	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigs)
	go func() {
		<-sigs
		fmt.Fprintln(out, "lockd: signal — draining")
		nd.Drain()
		<-sigs
		nd.Close()
	}()

	if err := nd.Connect(); err != nil {
		return err
	}
	fmt.Fprintf(out, "lockd: mesh up, running\n")
	runErr := nd.Run(*rounds)

	st := nd.Status()
	fmt.Fprintf(out, "lockd: stopped at round %d, fingerprint %s: %d grants (%d released, %d lease-expired), %d unsafe, backlog %d\n",
		st.Round, st.FP, st.Grants, st.Released, st.LeaseExpired, st.UnsafeGrants, st.Backlog)
	return runErr
}

// runReplay verifies a journal file against the deterministic engine.
func runReplay(path string, out io.Writer) error {
	j, err := netrun.LoadJournal(path)
	if err != nil {
		return err
	}
	res, err := netrun.Replay(j)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "replay: node %d of %d: %d rounds, %d moves of %s under %s replayed bitwise; final fingerprint %016x\n",
		j.Header.Node, j.Header.Nodes, res.Rounds, res.Moves, res.Protocol, res.Daemon, res.FinalFP)
	return nil
}

// splitPeers parses the -peers list, tolerating spaces after commas.
func splitPeers(csv string) []string {
	if strings.TrimSpace(csv) == "" {
		return nil
	}
	parts := strings.Split(csv, ",")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	return parts
}

// orDefault renders a flag value with its resolved default.
func orDefault(v, def int) string {
	if v == 0 {
		return fmt.Sprintf("%d", def)
	}
	return fmt.Sprintf("%d", v)
}

// clientNote renders the client API part of the startup line.
func clientNote(addr string) string {
	if addr == "" {
		return " (no client API)"
	}
	return ", client API on " + addr
}

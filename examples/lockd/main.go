// Lockd: the networked lock service end to end, in one process
// (DESIGN.md §13). A three-node ring — each node scheduling a shard of a
// 12-vertex Dijkstra token ring, exchanging selection frames over real
// loopback TCP — serves a scripted client session over HTTP/JSON,
// drains cleanly, and then proves the whole run: the journal's effective
// schedule is replayed through the deterministic in-process engine under
// the recorded daemon with a bitwise fingerprint match at every round.
//
// The multi-process version is cmd/lockd (one node per process, same
// spec flags on each); README.md in this directory walks through it with
// curl. This example runs the identical stack through the in-process
// cluster harness so `go run ./examples/lockd` needs no port bookkeeping.
package main

import (
	"fmt"
	"log"

	"specstab/internal/netrun"
	"specstab/internal/scenario"
)

func main() {
	// The ring starts from a random (illegitimate) configuration: the
	// service must first self-stabilize, and the status counters below
	// show the gate tracking exactly when exclusive safety was reached.
	spec := netrun.Spec{
		Scenario: &scenario.Scenario{
			Name:     "lockd-example",
			Seed:     2013,
			Protocol: scenario.ProtocolSpec{Name: "dijkstra", K: 13},
			Topology: scenario.TopologySpec{Name: "ring", N: 12},
			Init:     scenario.InitSpec{Mode: "random"},
		},
		Nodes:       3,
		LeaseRounds: 64,
	}
	c, err := netrun.StartCluster(netrun.ClusterConfig{Spec: spec, HTTP: true})
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()
	addrs := c.ClientAddrs()
	fmt.Println("three-node ring up; client APIs:")
	for i, a := range addrs {
		fmt.Printf("  node %d: http://%s/v1/{acquire,release,status}\n", i, a)
	}

	// A named lock hashes onto one ring vertex, owned by one node. Asking
	// the wrong node returns a redirect naming the owner — the scripted
	// session below follows it, exactly as a curl user would.
	locks := []string{"build", "deploy", "vertex:7"}
	for _, name := range locks {
		grant, node := acquire(addrs, name)
		fmt.Printf("acquired %-8s -> vertex %2d on node %d at round %d (token %s)\n",
			name, grant.Vertex, grant.Node, grant.Round, grant.Token)
		rel, err := netrun.NewClient(addrs[node]).Release(grant.Token)
		if err != nil || !rel.Released {
			log.Fatalf("releasing %s: %v (%+v)", name, err, rel)
		}
	}

	st, err := netrun.NewClient(addrs[0]).Status()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("node 0 status: round %d, legitimate since round %d, %d grants, %d unsafe after stabilization\n",
		st.Round, st.LegitRound, st.Grants, st.UnsafeGrantsPostLegit)

	// Drain: no new grants, outstanding ones settle, every node says bye.
	c.DrainAll()
	if err := c.Wait(); err != nil {
		log.Fatal(err)
	}

	// The proof obligation: each node journaled the effective daemon
	// schedule; replay it through scenario.Build under the recorded
	// daemon and demand the same fingerprint after every round.
	res, err := netrun.Replay(c.Node(0).Journal())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("replay: %d rounds, %d moves of %s under %s replayed bitwise; final fingerprint %016x\n",
		res.Rounds, res.Moves, res.Protocol, res.Daemon, res.FinalFP)
}

// acquire asks node 0 for the lock and follows the not-owner redirect,
// returning the grant and the node that issued it.
func acquire(addrs []string, name string) (netrun.AcquireReply, int) {
	node := 0
	for hop := 0; hop < len(addrs); hop++ {
		rep, err := netrun.NewClient(addrs[node]).Acquire(name, "example", 0)
		if err != nil {
			log.Fatalf("acquiring %s on node %d: %v", name, node, err)
		}
		if rep.Granted {
			return rep, node
		}
		if rep.Reason != "not-owner" {
			log.Fatalf("acquiring %s: refused: %s", name, rep.Reason)
		}
		node = rep.Node
	}
	log.Fatalf("acquiring %s: redirect loop", name)
	return netrun.AcquireReply{}, 0
}

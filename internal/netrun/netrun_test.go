package netrun

import (
	"bytes"
	"fmt"
	"io"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"specstab/internal/scenario"
)

// ringSpec is the canonical test deployment: Dijkstra's token ring from a
// random (faulted) start, sharded three ways.
func ringSpec(seed int64, daemon string) Spec {
	return Spec{
		Scenario: &scenario.Scenario{
			Seed:     seed,
			Protocol: scenario.ProtocolSpec{Name: "dijkstra", K: 13},
			Topology: scenario.TopologySpec{Name: "ring", N: 12},
			Daemon:   scenario.DaemonSpec{Name: daemon},
			Init:     scenario.InitSpec{Mode: "random"},
		},
		Nodes: 3,
	}
}

func TestShardMath(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct{ n, nodes int }{{12, 3}, {13, 3}, {7, 2}, {5, 5}, {100, 7}} {
		covered := 0
		for id := 0; id < tc.nodes; id++ {
			lo, hi := shardRange(tc.n, tc.nodes, id)
			if lo > hi || (id == 0 && lo != 0) || (id == tc.nodes-1 && hi != tc.n) {
				t.Fatalf("n=%d nodes=%d id=%d: bad shard [%d, %d)", tc.n, tc.nodes, id, lo, hi)
			}
			for v := lo; v < hi; v++ {
				if got := nodeOf(tc.n, tc.nodes, v); got != id {
					t.Errorf("n=%d nodes=%d: vertex %d owned by %d, shardRange says %d", tc.n, tc.nodes, v, got, id)
				}
				covered++
			}
		}
		if covered != tc.n {
			t.Errorf("n=%d nodes=%d: shards cover %d vertices", tc.n, tc.nodes, covered)
		}
	}
}

func TestResolveLock(t *testing.T) {
	t.Parallel()
	if v, err := ResolveLock("vertex:7", 12); err != nil || v != 7 {
		t.Errorf("vertex:7 → (%d, %v)", v, err)
	}
	if _, err := ResolveLock("vertex:12", 12); err == nil {
		t.Error("vertex:12 resolved on a 12-ring")
	}
	if _, err := ResolveLock("", 12); err == nil {
		t.Error("empty name resolved")
	}
	a, err := ResolveLock("orders", 12)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ResolveLock("orders", 12)
	if err != nil || a != b {
		t.Errorf("hashing not stable: %d then %d (%v)", a, b, err)
	}
	if a < 0 || a >= 12 {
		t.Errorf("hashed vertex %d outside the ring", a)
	}
}

// TestClusterReplicates runs a three-node ring for a fixed budget and
// checks the replication invariants: all journals identical, every
// committed round fingerprint-chained, and the whole execution accepted
// by the in-process engine via Replay.
func TestClusterReplicates(t *testing.T) {
	t.Parallel()
	var bufs [3]bytes.Buffer
	c, err := StartCluster(ClusterConfig{
		Spec:      ringSpec(7, "sync"),
		MaxRounds: 200,
		Journals:  []io.Writer{&bufs[0], &bufs[1], &bufs[2]},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Wait(); err != nil {
		t.Fatal(err)
	}
	j0 := c.Node(0).Journal()
	if len(j0.Entries) != 200 {
		t.Fatalf("node 0 committed %d rounds, want 200", len(j0.Entries))
	}
	for i := 1; i < c.Nodes(); i++ {
		ji := c.Node(i).Journal()
		if !reflect.DeepEqual(j0.Entries, ji.Entries) {
			t.Fatalf("node %d journal diverges from node 0", i)
		}
	}
	// The streamed JSONL parses back to the in-memory journal.
	fromDisk, err := ReadJournal(bytes.NewReader(bufs[0].Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fromDisk.Entries, j0.Entries) {
		t.Fatal("streamed journal diverges from the in-memory one")
	}
	if fromDisk.Header.InitFP != j0.Header.InitFP {
		t.Fatal("streamed header diverges")
	}
	// The oracle: the wire execution replays bitwise in the engine.
	res, err := Replay(fromDisk)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 200 || res.Protocol != "dijkstra" {
		t.Errorf("replay summary %+v", res)
	}
}

// TestClusterDistributedPolicyReplays exercises the coin-flip selection
// policy: unions are proper subsets of the enabled sets, yet the journal
// must still replay exactly (the recorded daemon is policy-agnostic).
func TestClusterDistributedPolicyReplays(t *testing.T) {
	t.Parallel()
	spec := ringSpec(11, "distributed")
	spec.Scenario.Daemon.P = 0.4
	c, err := StartCluster(ClusterConfig{Spec: spec, MaxRounds: 300})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Wait(); err != nil {
		t.Fatal(err)
	}
	j := c.Node(1).Journal()
	if len(j.Entries) != 300 {
		t.Fatalf("committed %d rounds, want 300", len(j.Entries))
	}
	if _, err := Replay(j); err != nil {
		t.Fatal(err)
	}
}

// TestReplayCatchesTampering pins the oracle's teeth: corrupt one
// journaled selection and the replay must refuse it.
func TestReplayCatchesTampering(t *testing.T) {
	t.Parallel()
	c, err := StartCluster(ClusterConfig{Spec: ringSpec(3, "sync"), MaxRounds: 50})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Wait(); err != nil {
		t.Fatal(err)
	}
	j := c.Node(0).Journal()

	tampered := Journal{Header: j.Header, Entries: append([]Entry(nil), j.Entries...)}
	e := tampered.Entries[25]
	e.Sel = append([]int(nil), e.Sel...)
	e.Sel[0] = (e.Sel[0] + 1) % 12
	tampered.Entries[25] = e
	if _, err := Replay(&tampered); err == nil {
		t.Error("replay accepted a tampered schedule")
	}

	tampered2 := Journal{Header: j.Header, Entries: append([]Entry(nil), j.Entries...)}
	tampered2.Entries[30].FP = "00000000deadbeef"
	if _, err := Replay(&tampered2); err == nil {
		t.Error("replay accepted a tampered fingerprint")
	} else if !strings.Contains(err.Error(), "diverges at round 31") {
		t.Errorf("divergence not located: %v", err)
	}
}

// TestClusterLockService is the PR's acceptance bar: a three-node lockd
// ring on loopback serves ≥10k acquire/release operations, issues zero
// unsafe grants after stabilization, and the journal replays bitwise.
func TestClusterLockService(t *testing.T) {
	if testing.Short() {
		t.Skip("10k networked lock operations")
	}
	t.Parallel()
	spec := ringSpec(42, "sync")
	c, err := StartCluster(ClusterConfig{Spec: spec, HTTP: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	addrs := c.ClientAddrs()
	clients := make([]*Client, len(addrs))
	for i, a := range addrs {
		clients[i] = NewClient(a)
	}
	// acquireAnywhere follows not-owner redirects to the owning node.
	acquireAnywhere := func(lock, who string) (AcquireReply, error) {
		rep, err := clients[0].Acquire(lock, who, 200000)
		for err == nil && !rep.Granted && rep.Reason == "not-owner" {
			rep, err = clients[rep.Node].Acquire(lock, who, 200000)
		}
		return rep, err
	}

	// 16×640 = 10240 operations; the race detector's ~20× slowdown gets
	// a proportionally smaller load (correctness is identical, the ≥10k
	// acceptance count is asserted on the uninstrumented run).
	const workers = 16
	opsPer := 640
	if raceDetector {
		opsPer = 96
	}
	var ops, failures atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lock := fmt.Sprintf("lock-%d", w)
			who := fmt.Sprintf("worker-%d", w)
			for i := 0; i < opsPer; i++ {
				rep, err := acquireAnywhere(lock, who)
				if err != nil || !rep.Granted {
					failures.Add(1)
					t.Errorf("worker %d op %d: acquire failed: %+v %v", w, i, rep, err)
					return
				}
				rel, err := clients[rep.Node].Release(rep.Token)
				if err != nil || !rel.Released {
					failures.Add(1)
					t.Errorf("worker %d op %d: release failed: %+v %v", w, i, rel, err)
					return
				}
				ops.Add(2)
			}
		}(w)
	}
	wg.Wait()
	if failures.Load() > 0 {
		t.Fatalf("%d workers failed", failures.Load())
	}
	if got := ops.Load(); got < int64(2*workers*opsPer) {
		t.Fatalf("served %d of %d operations", got, 2*workers*opsPer)
	} else if !raceDetector && got < 10000 {
		t.Fatalf("served %d operations, acceptance needs ≥ 10000", got)
	}

	// Safety: a random start speculates, a stabilized ring must not.
	for i := range clients {
		st, err := clients[i].Status()
		if err != nil {
			t.Fatal(err)
		}
		if st.LegitRound < 0 {
			t.Errorf("node %d never stabilized", i)
		}
		if st.UnsafeGrantsPostLegit != 0 {
			t.Errorf("node %d issued %d unsafe grants after stabilization", i, st.UnsafeGrantsPostLegit)
		}
	}

	c.DrainAll()
	if err := c.Wait(); err != nil {
		t.Fatal(err)
	}
	// The differential oracle over the full load run.
	sum := int64(0)
	for i := 0; i < c.Nodes(); i++ {
		st := c.Node(i).Status()
		sum += st.Grants
	}
	if sum < int64(workers*opsPer) {
		t.Errorf("ring granted %d times, %d operations completed", sum, workers*opsPer)
	}
	res, err := Replay(c.Node(0).Journal())
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("acceptance: %d ops over %d rounds, %d moves replayed bitwise", ops.Load(), res.Rounds, res.Moves)
}

// TestClusterLeaseReclaimsAbandonedGrant covers the vanished-client path
// end to end: acquire, never release, and watch the lease free the
// vertex for the next client.
func TestClusterLeaseReclaimsAbandonedGrant(t *testing.T) {
	t.Parallel()
	spec := ringSpec(5, "sync")
	spec.LeaseRounds = 30
	c, err := StartCluster(ClusterConfig{Spec: spec, HTTP: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	clients := make([]*Client, c.Nodes())
	for i, a := range c.ClientAddrs() {
		clients[i] = NewClient(a)
	}
	acquire := func(lock, who string) AcquireReply {
		rep, err := clients[0].Acquire(lock, who, 100000)
		for err == nil && !rep.Granted && rep.Reason == "not-owner" {
			rep, err = clients[rep.Node].Acquire(lock, who, 100000)
		}
		if err != nil || !rep.Granted {
			t.Fatalf("acquire %s: %+v %v", lock, rep, err)
		}
		return rep
	}
	first := acquire("doomed-lock", "vanisher")
	// The vanisher never releases. The same lock must be grantable again
	// once the lease horizon passes.
	second := acquire("doomed-lock", "survivor")
	if second.Round < first.LeaseRound {
		t.Errorf("regrant at round %d, before the lease horizon %d", second.Round, first.LeaseRound)
	}
	if _, err := clients[second.Node].Release(second.Token); err != nil {
		t.Fatal(err)
	}
	// Releasing the reclaimed first token is a refusal, not an error.
	rel, err := clients[first.Node].Release(first.Token)
	if err != nil {
		t.Fatal(err)
	}
	if rel.Released {
		t.Error("released a lease-reclaimed token")
	}
	st, err := clients[first.Node].Status()
	if err != nil {
		t.Fatal(err)
	}
	if st.LeaseExpired == 0 {
		t.Error("no lease reclaim recorded")
	}
	c.DrainAll()
	if err := c.Wait(); err != nil {
		t.Fatal(err)
	}
}

// TestClusterSurvivorsStallOnKill pins the fault posture: when one node
// dies mid-run, the survivors' barriers break — they stop committing
// rounds and stop granting instead of running ahead on a torn replica.
func TestClusterSurvivorsStallOnKill(t *testing.T) {
	t.Parallel()
	c, err := StartCluster(ClusterConfig{Spec: ringSpec(9, "sync"), HTTP: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Kill node 2 abruptly: no bye, sockets torn down.
	c.Node(2).Close()
	c.wg.Wait()
	faults := 0
	for i := 0; i < 2; i++ {
		if c.errs[i] != nil {
			faults++
		}
		if !c.Node(i).Status().Stalled {
			t.Errorf("node %d not marked stalled after peer death", i)
		}
	}
	if faults == 0 {
		t.Error("no survivor reported the broken barrier")
	}
	// A survivor's gate must refuse new work only by never granting —
	// the status endpoint stays up and reports the stall.
	st, err := NewClient(c.Node(0).ClientAddr()).Status()
	if err != nil {
		t.Fatal(err)
	}
	if !st.Stalled {
		t.Error("status does not report the stall")
	}
}

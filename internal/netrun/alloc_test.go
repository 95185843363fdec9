package netrun

// Allocation regression tests for the zero-allocation round loop
// (DESIGN.md §13). Two layers: the frame encode/decode path is pinned
// to exactly zero steady-state heap allocations, and the full
// in-process 3-node loopback ring is bounded well under one allocation
// per committed round across the whole cluster — pumps, barrier,
// journal arena and gate included — so any new per-round allocation
// anywhere in the loop fails here before it shows up in BENCH_netrun.

import (
	"net"
	"runtime"
	"testing"

	"specstab/internal/scenario"
)

// TestRoundLoopAllocs pins the transport's frame path: encoding a round
// frame into a warmed pooled buffer and decoding it back into warmed
// scratch must not touch the heap at all.
func TestRoundLoopAllocs(t *testing.T) {
	if raceDetector {
		t.Skip("race instrumentation allocates; measured without -race")
	}
	src := &Frame{Kind: KindRound, Round: RoundFrame{
		Round: 7, Node: 1, PrevFP: 0xfeedface, Active: 1,
		Sel: []uint32{2, 5, 9},
	}}
	var dst Frame
	encodeDecode := func() {
		w := acquireWire()
		var err error
		w.b, err = AppendWireFrame(w.b, src)
		if err != nil {
			t.Fatal(err)
		}
		if err := DecodeFrameInto(&dst, w.b[4:]); err != nil {
			t.Fatal(err)
		}
		w.release()
	}
	encodeDecode() // warm the pool and dst's Sel capacity
	if allocs := testing.AllocsPerRun(100, encodeDecode); allocs != 0 {
		t.Fatalf("frame encode/decode path allocates %.2f per round, want exactly 0", allocs)
	}
	if dst.Round.Round != src.Round.Round || len(dst.Round.Sel) != 3 || dst.Round.Sel[2] != 9 {
		t.Fatalf("decoded frame corrupted: %+v", dst.Round)
	}
}

// TestClusterRoundLoopAllocs bounds the whole ring's steady state: a
// free-running 3-node loopback cluster, warmed past its ramp-up, must
// commit rounds with (amortized) well under one heap allocation per
// round cluster-wide. The residue that is allowed covers arena/append
// doublings and pool refills after a GC — a per-round allocation on the
// critical path would show up as ≥ windowRounds here.
func TestClusterRoundLoopAllocs(t *testing.T) {
	if raceDetector {
		t.Skip("race instrumentation allocates; measured without -race")
	}
	if testing.Short() {
		t.Skip("free-runs a cluster for ~1000 rounds")
	}
	c, err := StartCluster(ClusterConfig{Spec: Spec{
		Scenario: &scenario.Scenario{
			Seed:     7,
			Protocol: scenario.ProtocolSpec{Name: "dijkstra"},
			Topology: scenario.TopologySpec{Name: "ring", N: 24},
			Daemon:   scenario.DaemonSpec{Name: "sync"},
			Init:     scenario.InitSpec{Mode: "random"},
		},
		Nodes: 3,
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	waitPast := func(target int64) {
		for c.Node(0).Round() < target {
			runtime.Gosched()
		}
	}
	const windowRounds = 100
	waitPast(200) // ramp-up: pools, bufio, scratch capacities
	next := c.Node(0).Round()
	allocs := testing.AllocsPerRun(5, func() {
		next += windowRounds
		waitPast(next)
	})
	c.DrainAll()
	if err := c.Wait(); err != nil {
		t.Fatal(err)
	}
	perRound := allocs / windowRounds
	t.Logf("steady state: %.0f allocs per %d-round window (%.3f/round cluster-wide)", allocs, windowRounds, perRound)
	if perRound >= 1 {
		t.Fatalf("round loop allocates %.2f per round cluster-wide, want amortized < 1", perRound)
	}
}

// TestFramePoolSharedAcrossPumps fans single refcounted encode buffers
// out to several write pumps at once, the pattern the round loop uses
// every round. Under -race (race_on_test.go builds) this is the pool
// hammer: retain/release races, pump batching, writev reslicing and
// pool reuse all run concurrently across 4 connections × many frames.
func TestFramePoolSharedAcrossPumps(t *testing.T) {
	const conns = 4
	frames := 500
	if raceDetector {
		frames = 200
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	tx := make([]*Conn, conns)
	rx := make([]*Conn, conns)
	for i := 0; i < conns; i++ {
		var errA error
		accepted := make(chan *Conn, 1)
		go func() {
			c, err := acceptPeer(ln, defaultIOTimeout, defaultIOTimeout)
			errA = err
			accepted <- c
		}()
		c, err := dialPeer(ln.Addr().String(), 1, defaultDialBackoff, defaultIOTimeout)
		if err != nil {
			t.Fatal(err)
		}
		tx[i] = c
		rx[i] = <-accepted
		if errA != nil {
			t.Fatal(errA)
		}
	}
	defer func() {
		for i := 0; i < conns; i++ {
			tx[i].Close()
			rx[i].Close()
		}
	}()

	done := make(chan error, conns)
	for i := 0; i < conns; i++ {
		go func(c *Conn) {
			var f Frame
			for k := 1; k <= frames; k++ {
				p, err := c.RecvBlocking()
				if err != nil {
					done <- err
					return
				}
				if err := DecodeFrameInto(&f, p); err != nil {
					done <- err
					return
				}
				r := &f.Round
				if f.Kind != KindRound || r.Round != uint64(k) || len(r.Sel) != 2 ||
					r.PrevFP != uint64(k) || r.Sel[1] != uint32(5+k%7) {
					t.Errorf("frame %d arrived corrupted: %+v", k, r)
					done <- nil
					return
				}
			}
			done <- nil
		}(rx[i])
	}
	for k := 1; k <= frames; k++ {
		w := acquireWire()
		var err error
		w.b, err = AppendWireFrame(w.b, &Frame{Kind: KindRound, Round: RoundFrame{
			Round: uint64(k), Node: 1, PrevFP: uint64(k),
			Sel: []uint32{uint32(k % 5), uint32(5 + k%7)},
		}})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < conns; i++ {
			w.retain()
			if err := tx[i].Send(w); err != nil {
				t.Fatal(err)
			}
		}
		w.release()
	}
	for i := 0; i < conns; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

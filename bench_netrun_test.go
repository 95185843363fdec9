// Micro-benchmark of the netrun transport round rate (DESIGN.md §13):
// an in-process loopback ring free-running b.N BSP rounds, the workload
// the zero-allocation pipelined transport optimizes. Every node is a
// real *netrun.Node with real TCP loopback connections — the measured
// ns/round is the full cost of one superstep: the shard's selection,
// frame encode, fan-out writes, the receive barrier, the engine step on
// the union selection, and journal and gate bookkeeping.
// BENCH_netrun.json records the rows with their commits and the 1-core
// rows of the earlier frame format under historical_1core.
//
// Run with:
//
//	go test -bench Netrun -benchtime 3s -run '^$' .
//
// Mesh setup (dial, handshake) is inside the timed region; at the
// benchtime-chosen round counts (hundreds of thousands) its share is
// noise. allocs/round spans the whole cluster — all nodes, pumps and
// journal bookkeeping — so it bounds the steady-state number pinned
// exactly by TestRoundLoopAllocs in internal/netrun.
package specstab_test

import (
	"fmt"
	"runtime"
	"testing"

	"specstab/internal/netrun"
	"specstab/internal/scenario"
)

// benchNetrunSpec is the canonical bench deployment: a 24-vertex ring
// from a random (stabilizing, then legitimate) start, sharded across the
// given node count.
func benchNetrunSpec(nodes int, protocol string) netrun.Spec {
	return netrun.Spec{
		Scenario: &scenario.Scenario{
			Seed:     7,
			Protocol: scenario.ProtocolSpec{Name: protocol},
			Topology: scenario.TopologySpec{Name: "ring", N: 24},
			Daemon:   scenario.DaemonSpec{Name: "sync"},
			Init:     scenario.InitSpec{Mode: "random"},
		},
		Nodes: nodes,
	}
}

func benchNetrunRing(b *testing.B, nodes int, protocol string) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	c, err := netrun.StartCluster(netrun.ClusterConfig{
		Spec:      benchNetrunSpec(nodes, protocol),
		MaxRounds: int64(b.N),
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := c.Wait(); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	rounds := c.Node(0).Round()
	if rounds != int64(b.N) {
		b.Fatalf("committed %d rounds, want %d", rounds, b.N)
	}
	var bytesIn, bytesOut int64
	for i := 0; i < c.Nodes(); i++ {
		st := c.Node(i).NetrunStats()
		bytesIn += st.BytesIn
		bytesOut += st.BytesOut
	}
	c.Close()
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(b.N), "allocs/round")
	b.ReportMetric(float64(bytesOut)/float64(b.N), "wire-B/round")
	_ = bytesIn
}

func BenchmarkNetrunRounds(b *testing.B) {
	b.Logf("machine: %s", machineString())
	for _, protocol := range []string{"dijkstra", "ssme"} {
		for _, nodes := range []int{2, 3, 5} {
			b.Run(fmt.Sprintf("%s-nodes%d", protocol, nodes), func(b *testing.B) {
				benchNetrunRing(b, nodes, protocol)
			})
		}
	}
}

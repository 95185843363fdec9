package main

// The lockd workload: an in-process three-node netrun ring serving named
// locks over HTTP, driven by two closed-loop client goroutines, each on
// its own keep-alive connection to its own node. The host has two cores,
// so the load generator never runs more client goroutines than that.

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"specstab/internal/netrun"
	"specstab/internal/scenario"
)

const (
	lockdNodes   = 3
	lockdRing    = 12
	lockdWorkers = 2
	// lockdLease is the grant lease in rounds. The lockd default of 64
	// rounds lasts about 2 ms on a free-running ring, shorter than an
	// HTTP release after a 1 ms hold in the tail, so it would fail a few
	// per cent of operations; the benchmark chooses workloads on which no
	// operation fails, so it leases for 4096 rounds (~150 ms here).
	lockdLease  = 4096
	lockdWarmup = 2 * time.Second
	maxHold     = time.Millisecond
)

// lockdSpec is the deployment the workload runs: the lockd defaults
// (Dijkstra's ring, sync daemon, 12-ring, capacity 1) from a random
// start.
func lockdSpec(seed int64) netrun.Spec {
	return netrun.Spec{
		Scenario: &scenario.Scenario{
			Name:     "bench-dijkstra",
			Seed:     seed,
			Protocol: scenario.ProtocolSpec{Name: "dijkstra"},
			Topology: scenario.TopologySpec{Name: "ring", N: lockdRing},
			Daemon:   scenario.DaemonSpec{Name: "sync"},
			Init:     scenario.InitSpec{Mode: "random"},
		},
		Nodes:       lockdNodes,
		LeaseRounds: lockdLease,
		Capacity:    1,
	}
}

// lockdRig is a running ring with its journal files.
type lockdRig struct {
	c     *netrun.Cluster
	files []*os.File
	paths []string
}

// startLockd starts the ring, streaming every node's journal to a file,
// and returns once the first round has committed: the ring is serving.
func startLockd(e *env) (*lockdRig, error) {
	rig := &lockdRig{}
	sinks := make([]io.Writer, lockdNodes)
	for i := range sinks {
		p := filepath.Join(e.dir, fmt.Sprintf("journal-%d.jsonl", i))
		f, err := os.Create(p)
		if err != nil {
			rig.closeFiles()
			return nil, err
		}
		rig.files = append(rig.files, f)
		rig.paths = append(rig.paths, p)
		sinks[i] = f
	}
	sp := e.rec.begin("netrun.StartCluster", -1, 0)
	c, err := netrun.StartCluster(netrun.ClusterConfig{Spec: lockdSpec(e.seed), HTTP: true, Journals: sinks})
	if err != nil {
		e.rec.end(sp)
		rig.closeFiles()
		return nil, err
	}
	rig.c = c
	deadline := time.Now().Add(10 * time.Second)
	for c.Node(0).Round() < 1 {
		if time.Now().After(deadline) {
			e.rec.end(sp)
			// A ring that never commits cannot drain: close its sockets,
			// which faults every round loop out, and wait for them.
			c.Close()
			c.Wait()
			rig.closeFiles()
			return nil, fmt.Errorf("the ring committed no round within 10 s")
		}
		time.Sleep(20 * time.Microsecond)
	}
	e.rec.end(sp)
	return rig, nil
}

// stop drains the ring, waits for every node and closes the journals.
func (rig *lockdRig) stop() error {
	rig.c.DrainAll()
	err := rig.c.Wait()
	rig.c.Close()
	if cerr := rig.closeFiles(); err == nil {
		err = cerr
	}
	return err
}

func (rig *lockdRig) closeFiles() error {
	var first error
	for _, f := range rig.files {
		if err := f.Close(); err != nil && first == nil {
			first = err
		}
	}
	rig.files = nil
	return first
}

func lockdSetup(e *env) (func() error, error) {
	rig, err := startLockd(e)
	if err != nil {
		return nil, err
	}
	return rig.stop, nil
}

// lockdGen is the load generator.
type lockdGen struct {
	seed    int64
	c       *netrun.Cluster
	clients [lockdWorkers]*netrun.Client
	reqs    atomic.Int64
	// released counts successful releases over every phase, warm-up
	// included, for the cross-check against the nodes' own counters.
	released atomic.Int64
	logged   atomic.Int64
	log      func(format string, args ...any)
}

// opStats is one phase's client-side record.
type opStats struct {
	// lat is each completed op's latency in µs: the whole acquire → hold
	// → release cycle the client sees. Acquire alone is bimodal (the lock
	// is free, or the other worker holds it) and its median falls between
	// the modes, so it is reported per layer, from the acquire spans.
	lat, rounds       []float64
	done              []time.Duration // completion offsets from the phase start
	attempted, failed int64
}

func (s *opStats) merge(o opStats) {
	s.done = append(s.done, o.done...)
	s.lat = append(s.lat, o.lat...)
	s.rounds = append(s.rounds, o.rounds...)
	s.attempted += o.attempted
	s.failed += o.failed
}

// phase runs both workers for d and returns their merged record and the
// phase's wall time, which ends when the last op started before the
// deadline has finished.
func (g *lockdGen) phase(d time.Duration, rec *recorder, phaseNo int64) (opStats, time.Duration) {
	start := time.Now()
	var stats [lockdWorkers]opStats
	var wg sync.WaitGroup
	for i := 0; i < lockdWorkers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			stats[i] = g.worker(i, start, d, rec, phaseNo)
		}(i)
	}
	wg.Wait()
	wall := time.Since(start)
	var all opStats
	for _, s := range stats {
		all.merge(s)
	}
	return all, wall
}

// worker is client i: it talks only to node i and locks the first
// vertex of node i's shard, acquiring again as soon as it has released.
// Its hold times come from a generator seeded by the run seed, the phase
// and the worker.
func (g *lockdGen) worker(i int, start time.Time, d time.Duration, rec *recorder, phaseNo int64) opStats {
	rng := rand.New(rand.NewSource(g.seed*1_000_003 + phaseNo*7919 + int64(i)))
	cl, node := g.clients[i], g.c.Node(i)
	lock := "vertex:" + strconv.Itoa(i*lockdRing/lockdNodes)
	client := "w" + strconv.Itoa(i)
	var st opStats
	for {
		begun := time.Now()
		if begun.Sub(start) >= d {
			return st
		}
		hold := time.Duration(rng.Int63n(int64(maxHold)))
		req := g.reqs.Add(1)

		op := rec.beginAt("lockd.op", -1, req, begun)
		sp := rec.begin("netrun.Node.Round", op, req)
		r0 := node.Round()
		rec.end(sp)
		sp = rec.begin("netrun.Client.Acquire", op, req)
		rep, err := cl.Acquire(lock, client, 0)
		rec.end(sp)
		st.attempted++
		if err != nil || !rep.Granted {
			rec.end(op)
			st.failed++
			g.logFailure("acquire %s on node %d: %v %+v", lock, i, err, rep)
			continue
		}
		time.Sleep(hold)
		sp = rec.begin("netrun.Client.Release", op, req)
		rel, err := cl.Release(rep.Token)
		rec.end(sp)
		rec.end(op)
		if err != nil || !rel.Released {
			st.failed++
			g.logFailure("release %s on node %d: %v %+v", rep.Token, i, err, rel)
			continue
		}
		g.released.Add(1)
		st.done = append(st.done, time.Since(start))
		st.lat = append(st.lat, float64(time.Since(begun))/1e3)
		st.rounds = append(st.rounds, float64(rep.Round-r0))
	}
}

// logFailure reports the first few failed operations of a run.
func (g *lockdGen) logFailure(format string, args ...any) {
	if g.logged.Add(1) <= 5 {
		g.log("failed op: "+format, args...)
	}
}

// nodeCounters sums the nodes' counters, read through NetrunStats.
type nodeCounters struct {
	round                                  int64
	bytesOut, stalls, grants, leaseExpired int64
}

func readCounters(c *netrun.Cluster, rec *recorder) nodeCounters {
	var nc nodeCounters
	for i := 0; i < c.Nodes(); i++ {
		sp := rec.begin("netrun.Node.NetrunStats", -1, 0)
		s := c.Node(i).NetrunStats()
		rec.end(sp)
		if i == 0 {
			nc.round = s.Round
		}
		nc.bytesOut += s.BytesOut
		nc.stalls += s.BarrierStalls
		nc.grants += s.Grants
		nc.leaseExpired += s.LeaseExpired
	}
	return nc
}

// lockdTrace is what the traced window leaves for the per-layer
// metrics.
type lockdTrace struct {
	st              opStats
	wall            time.Duration
	before, after   nodeCounters
	jBefore, jAfter int64
	unsafePost      int64
}

func lockdRun(e *env) (*outcome, error) {
	out, tr, paths, err := lockdServe(e)
	if err != nil {
		return nil, err
	}
	// The ring is unreachable now, so its in-memory journals are garbage
	// by the time the on-disk ones are loaded.
	rounds := checkJournals(e, paths)
	if e.rec == nil {
		return out, nil
	}
	spans := e.rec.recorded()
	dr := float64(tr.after.round - tr.before.round)
	l := metrics{
		"netrun.rounds_per_s":            dr / tr.wall.Seconds(),
		"netrun.grants":                  float64(tr.after.grants - tr.before.grants),
		"netrun.lease_expired":           float64(tr.after.leaseExpired - tr.before.leaseExpired),
		"netrun.barrier_stalls":          float64(tr.after.stalls - tr.before.stalls),
		"netrun.wire_bytes_per_round":    float64(tr.after.bytesOut-tr.before.bytesOut) / dr,
		"netrun.journal_bytes_per_round": float64(tr.jAfter-tr.jBefore) / dr,
		"netrun.unsafe_post_legit":       float64(tr.unsafePost),
		"netrun.acquire_p50_us":          spanP(spans, "netrun.Client.Acquire", 0.5),
		"netrun.acquire_p99_us":          spanP(spans, "netrun.Client.Acquire", 0.99),
		"netrun.release_p50_us":          spanP(spans, "netrun.Client.Release", 0.5),
		"netrun.release_p99_us":          spanP(spans, "netrun.Client.Release", 0.99),
		"netrun.start_cluster_s":         spanP(spans, "netrun.StartCluster", 0.5) / 1e6,
		"netrun.load_journal_s":          spanP(spans, "netrun.LoadJournal", 0.5) / 1e6,
		"netrun.acquire_rounds_p50":      percentile(sortedCopy(tr.st.rounds), 0.5),
		"netrun.acquire_rounds_p95":      percentile(sortedCopy(tr.st.rounds), 0.95),
	}
	if replay := spanP(spans, "netrun.Replay", 0.5); replay > 0 {
		l["netrun.replay_rounds_per_s"] = float64(rounds) / (replay / 1e6)
	}
	procLayers(l, out.traced)
	out.layers = l
	return out, nil
}

// lockdServe starts the ring, warms it up, measures the windows, drains
// the ring and checks the nodes' own counters. It returns the measured
// windows, the traced window's raw record and the journal paths.
func lockdServe(e *env) (*outcome, lockdTrace, []string, error) {
	var tr lockdTrace
	rig, err := startLockd(e)
	if err != nil {
		return nil, tr, nil, err
	}
	stopped := false
	defer func() {
		if !stopped {
			rig.stop()
		}
	}()
	g := &lockdGen{seed: e.seed, c: rig.c, log: func(f string, a ...any) { fmt.Fprintf(e.log, "bench: "+f+"\n", a...) }}
	addrs := rig.c.ClientAddrs()
	for i := range g.clients {
		g.clients[i] = netrun.NewClient(addrs[i])
	}

	g.phase(lockdWarmup, nil, 0)
	out := &outcome{}
	for phaseNo, rec := range []*recorder{nil, e.rec} {
		if phaseNo == 1 && rec == nil {
			break
		}
		c0, j0 := readCounters(rig.c, rec), fileSize(rig.paths[0])
		pm := markProc()
		st, wall := g.phase(e.window, rec, int64(phaseNo+1))
		c1, j1 := readCounters(rig.c, rec), fileSize(rig.paths[0])
		win, err := closeWindow(pm, medianRate(st.done, e.window), median(st.lat), st.attempted, st.failed)
		if err != nil {
			return nil, tr, nil, err
		}
		if phaseNo == 0 {
			out.untraced = win
			continue
		}
		out.traced = win
		tr = lockdTrace{st: st, wall: wall, before: c0, after: c1, jBefore: j0, jAfter: j1}
	}
	stopped = true
	e.check(rig.stop() == nil, "netrun.drain", "the ring did not drain cleanly")

	var released int64
	for i := 0; i < rig.c.Nodes(); i++ {
		sp := e.rec.begin("netrun.Node.Status", -1, 0)
		st := rig.c.Node(i).Status()
		e.rec.end(sp)
		released += st.Released
		tr.unsafePost += st.UnsafeGrantsPostLegit
		e.check(st.UnsafeGrantsPostLegit == 0, "netrun.unsafe_post_legit", "node %d issued %d unsafe grants after stabilizing", i, st.UnsafeGrantsPostLegit)
		e.check(st.LegitRound >= 0, "netrun.legit_round", "node %d never saw a legitimate configuration", i)
	}
	e.check(released == g.released.Load(), "netrun.released", "nodes count %d releases, clients %d", released, g.released.Load())
	return out, tr, rig.paths, nil
}

// checkJournals loads every node's journal from disk and replays it
// through the in-process engine, which must reproduce every round's
// fingerprint bitwise, then requires the journals to be identical round
// for round. The journals are loaded and replayed concurrently, one
// goroutine each. It returns the number of journaled rounds.
func checkJournals(e *env, paths []string) int {
	js := make([]*netrun.Journal, len(paths))
	errs := make([]error, len(paths))
	var wg sync.WaitGroup
	for i, p := range paths {
		wg.Add(1)
		go func(i int, p string) {
			defer wg.Done()
			sp := e.rec.begin("netrun.LoadJournal", -1, int64(i))
			j, err := netrun.LoadJournal(p)
			e.rec.end(sp)
			if err != nil {
				errs[i] = fmt.Errorf("journal.load: %w", err)
				return
			}
			js[i] = j
			sp = e.rec.begin("netrun.Replay", -1, int64(i))
			res, err := netrun.Replay(j)
			e.rec.end(sp)
			switch {
			case err != nil:
				errs[i] = fmt.Errorf("journal.replay: node %d: %w", i, err)
			case res.Rounds != len(j.Entries) || res.Rounds == 0:
				errs[i] = fmt.Errorf("journal.replay: node %d replayed %d of %d rounds", i, res.Rounds, len(j.Entries))
			}
		}(i, p)
	}
	wg.Wait()
	for _, err := range errs {
		e.check(err == nil, "journal", "%v", err)
	}
	for i := 1; i < len(js); i++ {
		if js[0] != nil && js[i] != nil {
			e.check(sameJournal(js[0], js[i]), "journal.identical", "node %d's journal differs from node 0's", i)
		}
	}
	if js[0] == nil {
		return 0
	}
	return len(js[0].Entries)
}

// sameJournal compares two nodes' journals: the same deployment and
// start, and the same schedule and fingerprint in every round.
func sameJournal(a, b *netrun.Journal) bool {
	ha, hb := a.Header, b.Header
	ha.Node, hb.Node = 0, 0
	if !reflect.DeepEqual(ha, hb) || len(a.Entries) != len(b.Entries) {
		return false
	}
	for i := range a.Entries {
		x, y := a.Entries[i], b.Entries[i]
		if x.Round != y.Round || x.FP != y.FP || !slices.Equal(x.Sel, y.Sel) {
			return false
		}
	}
	return true
}

func fileSize(path string) int64 {
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return fi.Size()
}

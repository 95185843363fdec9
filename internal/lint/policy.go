package lint

// Policy is the repository's audit configuration: which packages carry the
// determinism contract, and which sites are allowed to touch wall-clock
// time. Tests substitute small policies; everything else uses Default.
//
// Adding a new deterministic package (DESIGN.md §10): append its import
// path to deterministicPkgs — nothing else. The wallclock analyzer audits
// every package of the module, so a new package is covered there the
// moment it exists; exemptions must be claimed here, loudly, not inline.
type Policy struct {
	// Deterministic marks the packages whose executions must be bitwise
	// reproducible across worker counts and runs: detmap and
	// detrand apply only here.
	Deterministic map[string]bool
	// WallclockExemptFiles lists module-relative files with sanctioned
	// wall-clock reads (the telemetry sink and netrun's network boundary).
	// Bench and test files are outside the audit entirely — speclint
	// analyzes non-test sources.
	WallclockExemptFiles map[string]bool
	// GoroutineExemptFiles lists module-relative files allowed to contain
	// raw go statements inside deterministic packages — the approved
	// worker-pool implementations whose barriers the determinism argument
	// covers (DESIGN.md §11). Everything else in a deterministic package
	// must dispatch through those pools.
	GoroutineExemptFiles map[string]bool
	// RegistryPkg is the package whose protocol registry the capability
	// analyzer cross-checks against the differential test matrix.
	RegistryPkg string
}

// Default returns the repository policy.
func Default() *Policy {
	return &Policy{
		Deterministic: set(
			// The engine and its execution layers (DESIGN.md §6–§9).
			"specstab/internal/sim",
			"specstab/internal/daemon",
			"specstab/internal/scenario",
			"specstab/internal/campaign",
			"specstab/internal/service",
			"specstab/internal/graph",
			// The protocol packages and their composition.
			"specstab/internal/core",
			"specstab/internal/unison",
			"specstab/internal/dijkstra",
			"specstab/internal/bfstree",
			"specstab/internal/matching",
			"specstab/internal/lexclusion",
			"specstab/internal/compose",
			// Deterministic supporting layers: clock arithmetic, the
			// model checker, fault injection, measurement.
			"specstab/internal/clock",
			"specstab/internal/check",
			"specstab/internal/faults",
			"specstab/internal/speculation",
			"specstab/internal/stats",
			"specstab/internal/trace",
			"specstab/internal/experiments",
			// Telemetry collects on the deterministic state path (hooks,
			// fold callbacks): its collection side obeys the full contract.
			// Its two sink files carry the exemptions claimed below.
			"specstab/internal/telemetry",
			// The networked runtime's round loop is a BSP superstep over
			// the flat kernels — deterministic given the journaled schedule
			// (the replay oracle pins it). Its transport, client-server and
			// harness files carry the exemptions claimed below.
			"specstab/internal/netrun",
		),
		WallclockExemptFiles: set(
			// The JSONL sink stamps events with wall time at the sink
			// boundary only — series and events carry logical ticks.
			"internal/telemetry/jsonl.go",
			// netrun's entire wall-clock surface: frame deadlines, dial
			// backoff, barrier patience. Everything above it reasons in
			// rounds, leases included; the journal holds no grant state,
			// so replay does not depend on how leases are denominated.
			"internal/netrun/transport.go",
			// The barrier's stall timer and the receive pump's blocking
			// reads: the concurrent barrier's only clock, paired with
			// transport.go's deadlines.
			"internal/netrun/pump.go",
		),
		GoroutineExemptFiles: set(
			// The persistent shard pool behind the engine's parallel
			// phases: workers park on wake channels and join through a
			// done-token barrier before any result is read.
			"internal/sim/pool.go",
			// The campaign grid scheduler: cell×trial fan-out with a
			// deterministic grid-order fold.
			"internal/campaign/pool.go",
			// The HTTP exporter's serve loop: it only reads mutex-guarded
			// snapshots, never the simulation state, so the goroutine
			// cannot perturb an execution.
			"internal/telemetry/http.go",
			// netrun's concurrency boundary: the per-connection write pump,
			// the client HTTP server, and the in-process cluster harness's
			// per-node round loops. The round loop itself never spawns — a
			// node's execution is single-threaded between barriers.
			"internal/netrun/transport.go",
			"internal/netrun/httpd.go",
			"internal/netrun/cluster.go",
			// The per-peer receive pumps feeding the round barrier's
			// mailboxes: they only decode and park frames — every commit
			// still happens on the single round-loop goroutine, after the
			// barrier has one same-round frame from every peer.
			"internal/netrun/pump.go",
		),
		RegistryPkg: "specstab/internal/scenario",
	}
}

func set(keys ...string) map[string]bool {
	m := make(map[string]bool, len(keys))
	for _, k := range keys {
		m[k] = true
	}
	return m
}

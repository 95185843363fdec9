// Package specstab is a faithful, executable reproduction of
// "Introducing Speculation in Self-Stabilization: An Application to Mutual
// Exclusion" (Dubois & Guerraoui, PODC 2013).
//
// The repository mechanizes the paper's model (guarded-command protocols
// under daemons, Section 2), its notion of speculative stabilization
// (Section 3), the SSME mutual-exclusion protocol built on self-stabilizing
// asynchronous unison (Section 4), and the synchronous lower bound
// construction (Section 5).
//
// The library lives under internal/ (see DESIGN.md §2 for the inventory);
// runnable entry points are under cmd/ and examples/; the benchmark harness
// regenerating every paper claim is bench_test.go together with
// internal/experiments, whose measured outcomes EXPERIMENTS.md records
// next to the paper's claims.
//
// Three substrate capabilities make the harness scale (DESIGN.md §6–§7):
//
//   - Engine locality: protocols declare their guard read-sets via
//     sim.Local (Neighbors must be the guard's read-set closure), and the
//     engine maintains the enabled set incrementally — O(Δ·avg-degree)
//     guard evaluations per step instead of O(N), with executions bitwise
//     identical to a full rescan (differential-tested for every protocol
//     under every daemon).
//   - The flat execution representation: every protocol provides a
//     sim.Flat codec packing per-vertex state into []int64 words with
//     batch guard/apply kernels over CSR adjacency, and the engine's
//     double-buffered, shard-parallel step executes on packed state only —
//     identical executions for every worker count and shard size, checked
//     step by step against a test-side reference stepper that interprets
//     the guarded rules directly (BENCH_flat.json records the ns/step);
//     compositions are zero-copy via the stride/base calling convention.
//   - The grid scheduler: internal/campaign fans cell×trial tasks over a
//     worker pool (one Engine+Daemon per task); per-cell randomness is
//     fixed at grid expansion and folds run in grid order, so tables are
//     identical for every worker count.
//
// On top of the substrate, internal/service turns privileges into a
// mutual-exclusion service: client populations (open- and closed-loop, up
// to millions of clients) queue at the vertices, a grant adapter maps
// per-step privilege sets to critical-section grants, live fault storms
// hit the running engine (sim.Engine.SetConfig), and recovery is measured
// as clients observe it — grant latency, throughput, fairness, starvation
// (E13, cmd/locksim, BENCH_service.json).
//
// The whole evaluation grid is declarative (DESIGN.md §8–§9): an
// internal/scenario.Scenario value names one run — protocol, topology,
// daemon, engine workers, initial configuration, workload, fault storm, stop
// condition, observers — against named registries of constructors, and
// round-trips through JSON so a variant study is a shareable file
// (locksim -scenario file.json; the catalogue is scenario.List / locksim
// -list). An internal/campaign.Campaign value names a whole sweep — a
// base scenario, axes over any of its fields, trials, metrics and
// aggregation statistics — expanded into a cartesian grid, executed on
// the scheduler, aggregated into streaming tables, and resumable through
// a fingerprint-keyed checkpoint journal (specbench -campaign file.json,
// locksim -campaign; built-ins resolve by name). Measurements compose:
// sim.Engine carries an AddHook observer pipeline (trace, convergence,
// guard accounting, speculation curves, service metrics can all watch
// one execution). Every cmd/ driver and the experiment harness construct
// their runs through these layers; the experiments themselves are
// campaign grids plus thin metric extractors, and scenario-built runs
// are differential-tested to fingerprint identically to hand-built ones.
//
// Any run streams live telemetry (DESIGN.md §12): -telemetry addr on
// the drivers serves Prometheus text on /metrics plus net/http/pprof,
// fed by internal/telemetry collectors riding the same observer
// surfaces — engine hook counters, service-level series on a two-stride
// pump, campaign grid progress from the fold — with a JSONL event
// stream for storm recoveries and cell completions. Collection is a
// pure read stamped in logical time (wall time only at the JSONL sink,
// goroutines only in the HTTP exporter, both allowlisted in the lint
// policy), so executions fingerprint bitwise identically with telemetry
// on or off — differential-tested across worker counts
// (examples/telemetry is a self-scraping soak; BENCH_telemetry.json
// records the overhead).
//
// The same execution deploys across OS processes (DESIGN.md §13):
// internal/netrun shards the ring's vertices over nodes that exchange
// selection frames over TCP in BSP rounds and each step the engine on
// their union (a slow peer stalls a round, never corrupts it), cmd/lockd serves acquire/release/status on
// named locks over HTTP/JSON with round-denominated leases, and each
// node journals the effective schedule so `lockd -replay` can re-verify
// the whole run against the deterministic engine fingerprint-by-
// fingerprint (examples/lockd is the end-to-end walkthrough). The
// transport round loop runs allocation-free in the steady state —
// pooled refcounted frames, one vectored write per peer per round,
// per-peer receive pumps feeding a concurrent barrier, and a buffered
// journal — pinned by TestRoundLoopAllocs and measured in
// BENCH_netrun.json.
//
// The determinism and capability contracts above are machine-checked:
// `go run ./cmd/speclint ./...` (internal/lint, DESIGN.md §10) statically
// forbids unordered map iteration, wall-clock reads and global randomness
// in deterministic packages, enforces the StepInfo aliasing contract on
// hooks, and requires every Flat protocol to declare Local + RuleBounded
// and every registered protocol to appear in the differential test
// matrix. CI runs it on every push.
package specstab

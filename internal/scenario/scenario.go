// Package scenario is the declarative run layer: a Scenario value names —
// rather than hand-wires — everything one execution of the paper's
// evaluation grid needs (protocol × topology × daemon × engine workers × initial
// configuration × workload × fault storm × stop condition × observers),
// validates it against named registries of constructors, builds the typed
// engine or service simulation behind a type-erased Run, and executes it
// with any number of observers attached to the engine's hook pipeline.
//
// Scenarios round-trip through JSON, so an evaluation cell is a shareable
// file (`locksim -scenario file.json`) instead of a bespoke main(): the
// variant scenarios the literature suggests — Dolev & Herman's
// unsupportive environments, Hoepman's ring variants — become data
// changes, not code changes. Every cmd/ driver and the experiment harness
// construct their runs through this layer (DESIGN.md §8); scenario-built
// runs are bitwise identical to hand-built ones (differential-tested).
package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"specstab/internal/sim"
	"specstab/internal/telemetry"
)

// Scenario is one declarative run specification. The zero value of every
// optional field means "registry default" (documented per field); the
// mandatory fields are Protocol.Name and Topology.Name/N. Scenarios are
// plain data: Build resolves the names against the registries and returns
// a runnable Run.
type Scenario struct {
	// Name labels the scenario in reports and files; it has no semantics.
	Name string `json:"name,omitempty"`
	// Seed drives all randomness — topology generation, initial
	// configurations, daemon choices, workload arrivals. Zero is a valid
	// seed (scenarios built from flags inherit the drivers' default of 1).
	Seed int64 `json:"seed,omitempty"`
	// Protocol names the protocol under execution and its parameters.
	Protocol ProtocolSpec `json:"protocol"`
	// Topology names the communication graph.
	Topology TopologySpec `json:"topology"`
	// Daemon names the adversary (default: sync).
	Daemon DaemonSpec `json:"daemon,omitempty"`
	// Engine selects the shard workers; executions are bitwise identical
	// for every choice (DESIGN.md §6).
	Engine EngineSpec `json:"engine,omitempty"`
	// Init selects the initial-configuration policy (default: the
	// protocol's registry default — a legitimate start for locks, random
	// for everything else).
	Init InitSpec `json:"init,omitempty"`
	// Workload, when present, routes the run through the mutual-exclusion
	// service layer (internal/service): the protocol must expose
	// privileges (ssme, dijkstra, lexclusion).
	Workload *WorkloadSpec `json:"workload,omitempty"`
	// Storm, when present, runs a fault campaign against the running
	// service (requires Workload).
	Storm *StormSpec `json:"storm,omitempty"`
	// Stop bounds the run.
	Stop StopSpec `json:"stop,omitempty"`
	// Observers names the measurement pipeline attached to the engine.
	Observers []ObserverSpec `json:"observers,omitempty"`
	// Telemetry is the hub the "telemetry" observer publishes to — a
	// runtime handle like Engine.Pool, injected by drivers that serve
	// /metrics, never serialized. Nil means the observer runs against a
	// detached hub of its own (reachable via Run.Observer("telemetry")).
	Telemetry *telemetry.Hub `json:"-"`
}

// ProtocolSpec names a protocol and its parameters. Unused parameters must
// stay zero; the registry rejects parameters the named protocol does not
// understand only when they would silently change semantics (topology
// compatibility), otherwise they are ignored.
type ProtocolSpec struct {
	// Name is the registry name: ssme, unison, dijkstra, bfstree,
	// matching, lexclusion, product.
	Name string `json:"name"`
	// K is dijkstra's counter-state count (0 = n, the smallest correct
	// choice).
	K int `json:"k,omitempty"`
	// L is ℓ-exclusion's concurrency level (0 = 2).
	L int `json:"l,omitempty"`
	// Root is bfstree's root vertex.
	Root int `json:"root,omitempty"`
	// Minimal selects unison's minimal clock parameters instead of the
	// SSME-safe ones.
	Minimal bool `json:"minimal,omitempty"`
	// Unchecked skips dijkstra's K ≥ n validation — the deliberate
	// mis-parameterization that demonstrates divergence.
	Unchecked bool `json:"unchecked,omitempty"`
	// Factors are the two component protocols of a product.
	Factors []ProtocolSpec `json:"factors,omitempty"`
}

// TopologySpec names a communication graph from internal/graph.
type TopologySpec struct {
	// Name is the registry name (see TopologyNames).
	Name string `json:"name"`
	// N is the main size parameter (vertices; ignored by petersen).
	N int `json:"n,omitempty"`
}

// DaemonSpec names an adversary.
type DaemonSpec struct {
	// Name is the registry name (see DaemonNames); empty means sync.
	Name string `json:"name,omitempty"`
	// P is the activation probability of the distributed daemon (out of
	// range falls back to 0.5).
	P float64 `json:"p,omitempty"`
	// Schedule is the activation schedule replayed by the recorded daemon
	// — a runtime handle like Engine.Pool, injected by the netrun replay
	// oracle (journals carry it), never serialized.
	Schedule [][]int `json:"-"`
}

// EngineSpec selects the parallelism of the underlying sim.Engine. Every
// choice produces the identical execution; only the cost of producing it
// changes.
type EngineSpec struct {
	// Backend is accepted for compatibility with older scenario and
	// campaign files and ignored: "", "auto", "generic" and "flat" all
	// run the engine's one (packed) representation; other values are
	// rejected.
	Backend string `json:"backend,omitempty"`
	// Workers bounds the shard workers of the parallel evaluate phase
	// (0 = GOMAXPROCS, or the width of Pool when one is set).
	Workers int `json:"workers,omitempty"`
	// Pool is a shared persistent worker pool for the engine's sharded
	// phases — a runtime handle, not part of the declarative spec (the
	// campaign layer injects one so every cell×trial engine of a sweep
	// reuses the same worker goroutines). Nil means each engine owns its
	// pool. Never serialized.
	Pool *sim.Pool `json:"-"`
}

// InitSpec selects the initial-configuration policy.
type InitSpec struct {
	// Mode is the registry name (see InitModes): "" (protocol default),
	// random, zero, uniform, worst, clean.
	Mode string `json:"mode,omitempty"`
	// Value parameterizes uniform (the register value every vertex gets).
	Value int `json:"value,omitempty"`
}

// WorkloadSpec names a client population for the service layer.
type WorkloadSpec struct {
	// Kind is the registry name: closed or open.
	Kind string `json:"kind"`
	// Clients is the closed-loop population (0 = 2n).
	Clients int `json:"clients,omitempty"`
	// ThinkMin/ThinkMax bound closed-loop think times in ticks.
	ThinkMin int `json:"thinkMin,omitempty"`
	ThinkMax int `json:"thinkMax,omitempty"`
	// Rate is the open-loop mean arrival rate per tick.
	Rate float64 `json:"rate,omitempty"`
	// Hold is the critical-section hold time in ticks (0 = 1).
	Hold int `json:"hold,omitempty"`
	// Capacity bounds concurrent grants (0 = the lock's natural capacity:
	// ℓ for ℓ-exclusion, 1 otherwise).
	Capacity int `json:"capacity,omitempty"`
}

// StormSpec configures a fault campaign against the running service.
type StormSpec struct {
	// Bursts is the number of fault bursts (must be ≥ 1).
	Bursts int `json:"bursts"`
	// Corrupt is the registers corrupted per burst (0 = all).
	Corrupt int `json:"corrupt,omitempty"`
	// WarmTicks runs before each burst (0 = the resolved tick budget,
	// i.e. Stop.Ticks or one service window).
	WarmTicks int `json:"warmTicks,omitempty"`
	// HorizonTicks bounds the post-burst wait for the grant stream
	// (0 = 8 service windows).
	HorizonTicks int `json:"horizonTicks,omitempty"`
	// SettleTicks extends the post-burst window (0 = half a window).
	SettleTicks int `json:"settleTicks,omitempty"`
}

// StopSpec bounds a run.
type StopSpec struct {
	// Steps bounds protocol runs (0 = the protocol's service window, or
	// 8n when it declares none).
	Steps int `json:"steps,omitempty"`
	// Ticks bounds service runs (0 = one service window).
	Ticks int `json:"ticks,omitempty"`
	// UntilLegitimate stops a protocol run as soon as the configuration is
	// legitimate (requires a protocol with a legitimacy predicate).
	UntilLegitimate bool `json:"untilLegitimate,omitempty"`
}

// ObserverSpec names one observer of the measurement pipeline.
type ObserverSpec struct {
	// Name is the registry name (see ObserverNames): convergence, trace,
	// guards, speculation, service, steplog.
	Name string `json:"name"`
	// Every is the snapshot stride for trace/steplog (0 = 1).
	Every int `json:"every,omitempty"`
}

// Encode writes sc as indented JSON.
func (sc *Scenario) Encode(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(sc)
}

// Parse decodes one scenario from JSON, rejecting unknown fields so typos
// in hand-written files fail loudly instead of silently running defaults.
func Parse(r io.Reader) (*Scenario, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	sc := &Scenario{}
	if err := dec.Decode(sc); err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	return sc, nil
}

// Load reads and parses a scenario file.
func Load(path string) (*Scenario, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	sc, err := Parse(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return sc, nil
}

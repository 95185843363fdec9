package scenario

// Build resolves a Scenario against the registries. The protocol registry
// lives here next to its typed glue: each entry knows how to construct the
// protocol value (construct — shared with tools like the model checker
// that want the protocol without a run) and how to start a full Run
// (start — initial configuration, daemon, engine or service, observers).
// The generic machinery below the table erases the per-protocol state
// type behind Run/Probes once, so drivers and observers never mention it.

import (
	"fmt"
	"math/rand"
	"strings"

	"specstab/internal/bfstree"
	"specstab/internal/compose"
	"specstab/internal/core"
	"specstab/internal/dijkstra"
	"specstab/internal/graph"
	"specstab/internal/lexclusion"
	"specstab/internal/matching"
	"specstab/internal/service"
	"specstab/internal/sim"
	"specstab/internal/unison"
)

// protocolEntry is one named protocol constructor.
type protocolEntry struct {
	name   string
	params string
	desc   string
	// construct builds the protocol value for g (topo is the requested
	// topology name, for compatibility validation).
	construct func(spec ProtocolSpec, g *graph.Graph, topo string) (any, error)
	// start builds the full Run.
	start func(sc *Scenario, g *graph.Graph) (*Run, error)
	// lock, present on privilege-exposing protocols, builds the lock and
	// its resolved initial configuration without starting a run — the
	// netrun nodes' entry point (BuildLock), sharing the exact init glue
	// start uses so a networked node and its replay engine begin from the
	// identical configuration.
	lock func(sc *Scenario, g *graph.Graph) (service.Lock, sim.Config[int], error)
}

// protocolRegistry is filled by init: the product entry's constructor
// resolves its factors through the registry itself, which a composite
// literal initialization would turn into an initialization cycle.
var protocolRegistry []protocolEntry

func init() {
	protocolRegistry = []protocolEntry{
		{
			name: "ssme", desc: "the paper's speculative mutual exclusion (unison-based privileges)",
			construct: func(_ ProtocolSpec, g *graph.Graph, _ string) (any, error) { return core.New(g) },
			lock:      ssmeStart,
			start: func(sc *Scenario, g *graph.Graph) (*Run, error) {
				p, initial, err := ssmeStart(sc, g)
				if err != nil {
					return nil, err
				}
				return finish[int](sc, g, p, initial)
			},
		},
		{
			name: "unison", params: "minimal", desc: "self-stabilizing asynchronous unison (SSME's substrate)",
			construct: func(spec ProtocolSpec, g *graph.Graph, _ string) (any, error) {
				params := unison.SafeParams(g)
				if spec.Minimal {
					params = unison.MinimalParams(g)
				}
				return unison.New(g, params)
			},
			start: func(sc *Scenario, g *graph.Graph) (*Run, error) {
				pAny, err := protocolByName("unison").construct(sc.Protocol, g, "")
				if err != nil {
					return nil, err
				}
				p := pAny.(*unison.Protocol)
				initial, err := buildInitial[int](sc, p, initBuilders[int]{def: "random", zero: true})
				if err != nil {
					return nil, err
				}
				return finish[int](sc, g, p, initial)
			},
		},
		{
			name: "dijkstra", params: "k, unchecked", desc: "Dijkstra's K-state token ring (ring topologies only)",
			construct: func(spec ProtocolSpec, g *graph.Graph, topo string) (any, error) {
				if err := requireRing(topo); err != nil {
					return nil, err
				}
				k := spec.K
				if k == 0 {
					k = g.N()
				}
				if spec.Unchecked {
					return dijkstra.NewUnchecked(g.N(), k)
				}
				return dijkstra.New(g.N(), k)
			},
			lock: dijkstraStart,
			start: func(sc *Scenario, g *graph.Graph) (*Run, error) {
				p, initial, err := dijkstraStart(sc, g)
				if err != nil {
					return nil, err
				}
				return finish[int](sc, g, p, initial)
			},
		},
		{
			name: "bfstree", params: "root", desc: "Huang–Chen min+1 BFS spanning tree (silent)",
			construct: func(spec ProtocolSpec, g *graph.Graph, _ string) (any, error) {
				return bfstree.New(g, spec.Root)
			},
			start: func(sc *Scenario, g *graph.Graph) (*Run, error) {
				pAny, err := protocolByName("bfstree").construct(sc.Protocol, g, "")
				if err != nil {
					return nil, err
				}
				p := pAny.(*bfstree.Protocol)
				initial, err := buildInitial[int](sc, p, initBuilders[int]{def: "random", zero: true})
				if err != nil {
					return nil, err
				}
				return finish[int](sc, g, p, initial)
			},
		},
		{
			name: "matching", desc: "MMPT maximal matching (silent)",
			construct: func(_ ProtocolSpec, g *graph.Graph, _ string) (any, error) {
				return matching.New(g), nil
			},
			start: func(sc *Scenario, g *graph.Graph) (*Run, error) {
				p := matching.New(g)
				initial, err := buildInitial[matching.State](sc, p, initBuilders[matching.State]{
					def:   "random",
					clean: p.CleanConfig,
				})
				if err != nil {
					return nil, err
				}
				return finish[matching.State](sc, g, p, initial)
			},
		},
		{
			name: "lexclusion", params: "l", desc: "ℓ-exclusion via privilege groups (capacity ℓ)",
			construct: func(spec ProtocolSpec, g *graph.Graph, _ string) (any, error) {
				l := spec.L
				if l == 0 {
					l = 2
				}
				return lexclusion.New(g, l)
			},
			lock: lexclusionStart,
			start: func(sc *Scenario, g *graph.Graph) (*Run, error) {
				p, initial, err := lexclusionStart(sc, g)
				if err != nil {
					return nil, err
				}
				return finish[int](sc, g, p, initial)
			},
		},
		{
			name: "product", params: "factors (exactly 2)", desc: "collateral composition of two int-state protocols (zero-copy on flat)",
			construct: func(spec ProtocolSpec, g *graph.Graph, topo string) (any, error) {
				a, b, err := productFactors(spec, g, topo)
				if err != nil {
					return nil, err
				}
				return compose.New(a, b)
			},
			start: func(sc *Scenario, g *graph.Graph) (*Run, error) {
				a, b, err := productFactors(sc.Protocol, g, sc.Topology.Name)
				if err != nil {
					return nil, err
				}
				p, err := compose.New(a, b)
				if err != nil {
					return nil, err
				}
				initial, err := buildInitial[compose.Pair[int, int]](sc, p, initBuilders[compose.Pair[int, int]]{
					def: "random", zero: true,
				})
				if err != nil {
					return nil, err
				}
				return finish[compose.Pair[int, int]](sc, g, p, initial)
			},
		},
	}
}

// ssmeStart, dijkstraStart and lexclusionStart are the shared typed
// starts of the three lock protocols: protocol construction plus the
// resolved initial configuration. Both the registry start closures and
// BuildLock go through them, so every consumer resolves identically.
func ssmeStart(sc *Scenario, g *graph.Graph) (service.Lock, sim.Config[int], error) {
	p, err := core.New(g)
	if err != nil {
		return nil, nil, err
	}
	initial, err := buildInitial[int](sc, p, initBuilders[int]{
		def: "zero", zero: true,
		uniform: p.UniformConfig,
		worst:   p.WorstSyncConfig,
	})
	if err != nil {
		return nil, nil, err
	}
	return p, initial, nil
}

func dijkstraStart(sc *Scenario, g *graph.Graph) (service.Lock, sim.Config[int], error) {
	pAny, err := protocolByName("dijkstra").construct(sc.Protocol, g, sc.Topology.Name)
	if err != nil {
		return nil, nil, err
	}
	p := pAny.(*dijkstra.Protocol)
	initial, err := buildInitial[int](sc, p, initBuilders[int]{
		def: "zero", zero: true,
		worst: func() (sim.Config[int], error) { return p.WorstConfig(), nil },
	})
	if err != nil {
		return nil, nil, err
	}
	return p, initial, nil
}

func lexclusionStart(sc *Scenario, g *graph.Graph) (service.Lock, sim.Config[int], error) {
	pAny, err := protocolByName("lexclusion").construct(sc.Protocol, g, "")
	if err != nil {
		return nil, nil, err
	}
	p := pAny.(*lexclusion.Protocol)
	initial, err := buildInitial[int](sc, p, initBuilders[int]{
		def: "uniform", zero: true,
		uniform: p.UniformConfig,
	})
	if err != nil {
		return nil, nil, err
	}
	return p, initial, nil
}

// BuildLock resolves sc's topology and protocol to a privilege-exposing
// lock plus its initial configuration, without starting a run. It is how
// a netrun node bootstraps: every node of a cluster calls it with the
// identical scenario and obtains the identical (graph, lock, initial)
// triple that scenario.Build hands the replay oracle's engine.
func BuildLock(sc *Scenario) (*graph.Graph, service.Lock, sim.Config[int], error) {
	g, err := BuildTopology(sc.Topology, sc.Seed)
	if err != nil {
		return nil, nil, nil, err
	}
	ent, err := protocolLookup(sc.Protocol.Name)
	if err != nil {
		return nil, nil, nil, err
	}
	if ent.lock == nil {
		return nil, nil, nil, fmt.Errorf("scenario: protocol %q exposes no privileges; netrun needs a lock (ssme, dijkstra, lexclusion)", sc.Protocol.Name)
	}
	lock, initial, err := ent.lock(sc, g)
	if err != nil {
		return nil, nil, nil, err
	}
	return g, lock, initial, nil
}

// productFactors constructs the two int-state components of a product.
func productFactors(spec ProtocolSpec, g *graph.Graph, topo string) (sim.Protocol[int], sim.Protocol[int], error) {
	if len(spec.Factors) != 2 {
		return nil, nil, fmt.Errorf("product needs exactly 2 factors, got %d", len(spec.Factors))
	}
	out := make([]sim.Protocol[int], 2)
	for i, f := range spec.Factors {
		ent, err := protocolLookup(f.Name)
		if err != nil {
			return nil, nil, err
		}
		pAny, err := ent.construct(f, g, topo)
		if err != nil {
			return nil, nil, err
		}
		p, ok := pAny.(sim.Protocol[int])
		if !ok {
			return nil, nil, fmt.Errorf("product factor %q is not an int-state protocol", f.Name)
		}
		out[i] = p
	}
	return out[0], out[1], nil
}

// requireRing rejects ring-only protocols on other topologies.
func requireRing(topo string) error {
	if t := strings.ToLower(topo); t != "" && t != "ring" {
		return fmt.Errorf("dijkstra runs on unidirectional rings only, not topology %q", topo)
	}
	return nil
}

// ProtocolNames returns the registry names in presentation order.
func ProtocolNames() []string {
	out := make([]string, len(protocolRegistry))
	for i, e := range protocolRegistry {
		out[i] = e.name
	}
	return out
}

// protocolByName panics on unknown names — internal use on static names.
func protocolByName(name string) *protocolEntry {
	ent, err := protocolLookup(name)
	if err != nil {
		panic(err)
	}
	return ent
}

func protocolLookup(name string) (*protocolEntry, error) {
	n := strings.ToLower(name)
	for i := range protocolRegistry {
		if protocolRegistry[i].name == n {
			return &protocolRegistry[i], nil
		}
	}
	return nil, fmt.Errorf("unknown protocol %q (choose from: %s)", name, strings.Join(ProtocolNames(), ", "))
}

// BuildProtocol constructs the named protocol value on g without starting
// a run — for tools (the model checker) that drive the protocol through
// other machinery. topo names the topology g was built from, so ring-only
// protocols can reject incompatible graphs.
func BuildProtocol(spec ProtocolSpec, g *graph.Graph, topo string) (any, error) {
	ent, err := protocolLookup(spec.Name)
	if err != nil {
		return nil, err
	}
	return ent.construct(spec, g, topo)
}

// Build resolves sc against the registries and returns a runnable Run.
// Scenario values are not mutated; every default is resolved at build
// time. Errors name the offending registry and the valid choices.
func Build(sc *Scenario) (*Run, error) {
	if sc.Storm != nil && sc.Workload == nil {
		return nil, fmt.Errorf("scenario: a storm needs a workload (the bursts hit a running service)")
	}
	if sc.Storm != nil && sc.Storm.Bursts < 1 {
		return nil, fmt.Errorf("scenario: a storm needs ≥ 1 burst, got %d", sc.Storm.Bursts)
	}
	g, err := BuildTopology(sc.Topology, sc.Seed)
	if err != nil {
		return nil, err
	}
	ent, err := protocolLookup(sc.Protocol.Name)
	if err != nil {
		return nil, err
	}
	return ent.start(sc, g)
}

// initBuilders carries the per-protocol initial-configuration support; nil
// closures mean the mode is unsupported by this protocol.
type initBuilders[S comparable] struct {
	// def is the mode used when the spec leaves Mode empty (or "default").
	def string
	// zero marks the all-zero configuration as a valid domain member.
	zero    bool
	uniform func(x int) (sim.Config[S], error)
	worst   func() (sim.Config[S], error)
	clean   func() sim.Config[S]
}

// buildInitial resolves the init policy. Random draws use one fresh
// generator seeded with the scenario seed — the construction every driver
// has always used, so scenario-built runs replay hand-built ones exactly.
func buildInitial[S comparable](sc *Scenario, p sim.Protocol[S], ib initBuilders[S]) (sim.Config[S], error) {
	mode := strings.ToLower(sc.Init.Mode)
	if mode == "" || mode == "default" {
		mode = ib.def
	}
	unsupported := func() error {
		return fmt.Errorf("init mode %q is not supported by protocol %q", mode, sc.Protocol.Name)
	}
	switch mode {
	case "random":
		return sim.RandomConfig[S](p, rand.New(sim.NewLazySource(sc.Seed))), nil
	case "zero":
		if !ib.zero {
			return nil, unsupported()
		}
		return make(sim.Config[S], p.N()), nil
	case "uniform":
		if ib.uniform == nil {
			return nil, unsupported()
		}
		return ib.uniform(sc.Init.Value)
	case "worst":
		if ib.worst == nil {
			return nil, unsupported()
		}
		return ib.worst()
	case "clean":
		if ib.clean == nil {
			return nil, unsupported()
		}
		return ib.clean(), nil
	default:
		return nil, fmt.Errorf("unknown init mode %q (choose from: %s)", sc.Init.Mode, strings.Join(InitModes(), ", "))
	}
}

// finish is the typed tail of every registry start function: daemon,
// engine or service, probes, observers — then the state type disappears
// behind the Run.
func finish[S comparable](sc *Scenario, g *graph.Graph, p sim.Protocol[S], initial sim.Config[S]) (*Run, error) {
	if sc.Workload != nil {
		lock, okLock := any(p).(service.Lock)
		cfg, okCfg := any(initial).(sim.Config[int])
		if !okLock || !okCfg {
			return nil, fmt.Errorf("scenario: protocol %q exposes no privileges; workloads need a lock (ssme, dijkstra, lexclusion)", sc.Protocol.Name)
		}
		return finishService(sc, g, lock, cfg)
	}
	d, err := NewDaemon[S](sc.Daemon, p.N())
	if err != nil {
		return nil, err
	}
	eng, err := NewEngine(sc.Engine, p, d, initial, sc.Seed)
	if err != nil {
		return nil, err
	}
	r := &Run{
		sc: sc, g: g, eng: eng, proto: p,
		daemonName: d.Name(),
		window:     defaultHorizon(p, g),
		probes:     makeProbes(p, eng.Current),
	}
	if err := validateStop(sc, r); err != nil {
		return nil, err
	}
	if err := attachObservers(r, sc, p, eng); err != nil {
		return nil, err
	}
	return r, nil
}

// finishService is the service-layer tail: the grant adapter owns the
// engine, the run wraps both. Locks are int-state by construction, so the
// typed glue here is monomorphic.
func finishService(sc *Scenario, g *graph.Graph, lock service.Lock, initial sim.Config[int]) (*Run, error) {
	d, err := NewDaemon[int](sc.Daemon, lock.N())
	if err != nil {
		return nil, err
	}
	wl, err := buildWorkload(sc.Workload, lock.N())
	if err != nil {
		return nil, err
	}
	opts, err := sc.Engine.Options()
	if err != nil {
		return nil, err
	}
	capacity := sc.Workload.Capacity
	if capacity == 0 {
		capacity = lockCapacity(lock)
	}
	hold := sc.Workload.Hold
	if hold == 0 {
		hold = 1
	}
	svc, err := service.New(lock, d, initial, sc.Seed, wl,
		service.Options{Hold: hold, Capacity: capacity, Engine: opts})
	if err != nil {
		return nil, err
	}
	eng := svc.Engine()
	r := &Run{
		sc: sc, g: g, eng: eng, proto: lock,
		daemonName: d.Name(),
		svc:        svc, wl: wl, hold: hold, capacity: capacity,
		window: defaultHorizon[int](lock, g),
		probes: makeProbes[int](lock, eng.Current),
	}
	if err := validateStop(sc, r); err != nil {
		return nil, err
	}
	if err := attachObservers(r, sc, sim.Protocol[int](lock), eng); err != nil {
		return nil, err
	}
	return r, nil
}

// lockCapacity is the lock's natural concurrent-grant bound: ℓ for
// ℓ-exclusion (the L capability), 1 for mutual exclusion.
func lockCapacity(lock service.Lock) int {
	if l, ok := lock.(interface{ L() int }); ok {
		return l.L()
	}
	return 1
}

// defaultHorizon is the stop bound used when the scenario leaves it open:
// the protocol's own service window when it declares one (a full privilege
// rotation), 8n otherwise.
func defaultHorizon[S comparable](p sim.Protocol[S], g *graph.Graph) int {
	if w, ok := any(p).(interface{ ServiceWindow() int }); ok {
		return w.ServiceWindow()
	}
	return 8 * g.N()
}

// validateStop rejects stop conditions the built run cannot honor.
func validateStop(sc *Scenario, r *Run) error {
	if sc.Stop.UntilLegitimate && r.probes.Legitimate == nil {
		return fmt.Errorf("scenario: stop.untilLegitimate needs a protocol with a legitimacy predicate, %q has none", sc.Protocol.Name)
	}
	return nil
}

// makeProbes captures the protocol's optional capabilities over the live
// configuration as type-erased closures. cur must return the engine's
// live configuration (shared storage — the closures read, never retain).
func makeProbes[S comparable](p sim.Protocol[S], cur func() sim.Config[S]) Probes {
	pr := Probes{
		State:    func(v int) string { return fmt.Sprint(cur()[v]) },
		RuleName: p.RuleName,
	}
	pr.Fingerprint = func() uint64 { return sim.FingerprintConfig(cur()) }
	if lg, ok := any(p).(interface{ Legitimate(sim.Config[S]) bool }); ok {
		pr.Legitimate = func() bool { return lg.Legitimate(cur()) }
	}
	if s, ok := any(p).(interface{ SafeME(sim.Config[S]) bool }); ok {
		pr.Safe = func() bool { return s.SafeME(cur()) }
	} else if s, ok := any(p).(interface{ SafeLX(sim.Config[S]) bool }); ok {
		pr.Safe = func() bool { return s.SafeLX(cur()) }
	}
	if pv, ok := any(p).(interface {
		Privileged(sim.Config[S], int) bool
	}); ok {
		pr.Privileged = func(v int) bool { return pv.Privileged(cur(), v) }
	}
	return pr
}

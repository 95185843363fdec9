package scenario

// The named registries. Every constructor a scenario can name lives in
// exactly one table below (protocols are in build.go, next to their typed
// glue); List renders the whole catalogue, and the golden test pins it so
// a new entry is a reviewed, documented event rather than a drive-by
// switch case.

import (
	"fmt"
	"math/rand"
	"strings"

	"specstab/internal/daemon"
	"specstab/internal/graph"
	"specstab/internal/service"
	"specstab/internal/sim"
)

// topologyEntry is one named topology constructor.
type topologyEntry struct {
	name  string
	desc  string
	build func(n int, rng *rand.Rand) *graph.Graph
}

// topologyRegistry lists the constructors of internal/graph in the
// presentation order the CLI help has always used. rng is consumed only by
// the random families, so deterministic topologies are seed-independent.
var topologyRegistry = []topologyEntry{
	{"ring", "cycle on n vertices", func(n int, _ *rand.Rand) *graph.Graph { return graph.Ring(n) }},
	{"path", "path on n vertices", func(n int, _ *rand.Rand) *graph.Graph { return graph.Path(n) }},
	{"star", "one hub, n−1 leaves", func(n int, _ *rand.Rand) *graph.Graph { return graph.Star(n) }},
	{"complete", "clique on n vertices", func(n int, _ *rand.Rand) *graph.Graph { return graph.Complete(n) }},
	{"grid", "near-square r×c grid with r·c = n", func(n int, _ *rand.Rand) *graph.Graph {
		rows, cols := split(n)
		return graph.Grid(rows, cols)
	}},
	{"torus", "near-square wrap-around grid (sides ≥ 3)", func(n int, _ *rand.Rand) *graph.Graph {
		rows, cols := split(n)
		if rows < 3 {
			rows = 3
		}
		if cols < 3 {
			cols = 3
		}
		return graph.Torus(rows, cols)
	}},
	{"hypercube", "largest hypercube with ≤ n vertices", func(n int, _ *rand.Rand) *graph.Graph {
		dim := 1
		for (1 << (dim + 1)) <= n {
			dim++
		}
		return graph.Hypercube(dim)
	}},
	{"bintree", "complete binary tree on n vertices", func(n int, _ *rand.Rand) *graph.Graph { return graph.BinaryTree(n) }},
	{"wheel", "cycle plus a hub", func(n int, _ *rand.Rand) *graph.Graph { return graph.Wheel(n) }},
	{"lollipop", "clique on ⌈n/2⌉ with a path tail", func(n int, _ *rand.Rand) *graph.Graph {
		half := n / 2
		if half < 2 {
			half = 2
		}
		return graph.Lollipop(half, n-half)
	}},
	{"petersen", "the Petersen graph (n fixed at 10)", func(_ int, _ *rand.Rand) *graph.Graph { return graph.Petersen() }},
	{"randtree", "uniform random tree on n vertices", func(n int, rng *rand.Rand) *graph.Graph { return graph.RandomTree(n, rng) }},
	{"randconn", "random connected graph, n/2 extra edges", func(n int, rng *rand.Rand) *graph.Graph { return graph.RandomConnected(n, n/2, rng) }},
}

func split(n int) (rows, cols int) {
	rows = 1
	for r := 2; r*r <= n; r++ {
		if n%r == 0 {
			rows = r
		}
	}
	return rows, n / rows
}

// TopologyNames returns the registry names in presentation order.
func TopologyNames() []string {
	out := make([]string, len(topologyRegistry))
	for i, e := range topologyRegistry {
		out[i] = e.name
	}
	return out
}

// BuildTopology constructs the named graph with main size spec.N; seed
// drives the random families exactly as the CLI always has (one fresh
// generator per construction). The generator runs on a sim.LazySource, so
// the deterministic families, which never draw, never seed it. The graph
// constructors panic on sizes they reject; this is where a user-supplied
// size meets them, so such a panic is returned as the error instead.
func BuildTopology(spec TopologySpec, seed int64) (g *graph.Graph, err error) {
	name := strings.ToLower(spec.Name)
	for _, e := range topologyRegistry {
		if e.name == name {
			defer func() {
				if r := recover(); r != nil {
					g, err = nil, fmt.Errorf("topology %s with n = %d: %v", name, spec.N, r)
				}
			}()
			return e.build(spec.N, rand.New(sim.NewLazySource(seed))), nil
		}
	}
	return nil, fmt.Errorf("unknown topology %q (choose from: %s)", spec.Name, strings.Join(TopologyNames(), ", "))
}

// daemonEntry is one named adversary; construction is generic over the
// state type, so the table carries names and docs while NewDaemon carries
// the switch.
type daemonEntry struct {
	name    string
	aliases []string
	desc    string
}

var daemonRegistry = []daemonEntry{
	{"sync", []string{"sd"}, "synchronous: every enabled vertex fires"},
	{"central", []string{"random-central"}, "central: one uniformly random enabled vertex fires"},
	{"roundrobin", []string{"rr"}, "central with a rotating id cursor"},
	{"minid", nil, "central, always the smallest enabled id"},
	{"maxid", nil, "central, always the largest enabled id"},
	{"distributed", []string{"ud"}, "each enabled vertex fires with probability p"},
	{"recorded", nil, "replays an injected activation schedule (the netrun replay oracle)"},
}

// DaemonNames returns the registry names in presentation order.
func DaemonNames() []string {
	out := make([]string, len(daemonRegistry))
	for i, e := range daemonRegistry {
		out[i] = e.name
	}
	return out
}

// NewDaemon builds the named daemon for an n-vertex system. Empty names
// default to sync; spec.P parameterizes the distributed daemon (out of
// range falls back to 0.5).
func NewDaemon[S comparable](spec DaemonSpec, n int) (sim.Daemon[S], error) {
	switch strings.ToLower(spec.Name) {
	case "", "sync", "sd":
		return daemon.NewSynchronous[S](), nil
	case "central", "random-central":
		return daemon.NewRandomCentral[S](), nil
	case "roundrobin", "rr":
		return daemon.NewRoundRobin[S](n), nil
	case "minid":
		return daemon.NewMinIDCentral[S](), nil
	case "maxid":
		return daemon.NewMaxIDCentral[S](), nil
	case "distributed", "ud":
		p := spec.P
		if p <= 0 || p > 1 {
			p = 0.5
		}
		return daemon.NewDistributed[S](p), nil
	case "recorded":
		if len(spec.Schedule) == 0 {
			return nil, fmt.Errorf("the recorded daemon needs an injected schedule (DaemonSpec.Schedule; netrun journals carry one)")
		}
		return daemon.NewRecorded[S](spec.Schedule), nil
	default:
		return nil, fmt.Errorf("unknown daemon %q (choose from: %s)", spec.Name, strings.Join(DaemonNames(), ", "))
	}
}

// Options resolves the spec to engine options. The engine has one
// execution representation, so Backend selects nothing: the values older
// scenario files carry ("", "auto", "generic", "flat") are accepted and
// ignored, and any other value is still an error.
func (es EngineSpec) Options() (sim.Options, error) {
	switch strings.ToLower(es.Backend) {
	case "", "auto", "generic", "flat":
		return sim.Options{Workers: es.Workers, Pool: es.Pool}, nil
	default:
		return sim.Options{}, fmt.Errorf("unknown backend %q (accepted and ignored: auto, generic, flat)", es.Backend)
	}
}

// NewEngine builds an engine for an already-constructed protocol from an
// engine spec — the chokepoint the registry builders and the fault
// harness construct engines with.
func NewEngine[S comparable](es EngineSpec, p sim.Protocol[S], d sim.Daemon[S], initial sim.Config[S], seed int64) (*sim.Engine[S], error) {
	opts, err := es.Options()
	if err != nil {
		return nil, err
	}
	return sim.NewEngineWith(p, d, initial, seed, opts)
}

// workloadEntry is one named client population.
type workloadEntry struct {
	name string
	desc string
}

var workloadRegistry = []workloadEntry{
	{"closed", "fixed population cycling think → request → critical section (clients, thinkMin..thinkMax)"},
	{"open", "Poisson-like fresh arrivals at a fixed mean rate (rate per tick)"},
}

// WorkloadNames returns the registry names in presentation order.
func WorkloadNames() []string {
	out := make([]string, len(workloadRegistry))
	for i, e := range workloadRegistry {
		out[i] = e.name
	}
	return out
}

// buildWorkload constructs the named population over n vertices, applying
// the locksim defaults (closed: 2n clients; open: the rate as given).
func buildWorkload(spec *WorkloadSpec, n int) (service.Workload, error) {
	switch strings.ToLower(spec.Kind) {
	case "closed":
		clients := spec.Clients
		if clients <= 0 {
			clients = 2 * n
		}
		return service.NewClosedLoop(n, clients, spec.ThinkMin, spec.ThinkMax)
	case "open":
		return service.NewOpenLoop(n, spec.Rate)
	default:
		return nil, fmt.Errorf("unknown workload %q (choose from: %s)", spec.Kind, strings.Join(WorkloadNames(), ", "))
	}
}

// initEntry is one named initial-configuration policy; support is
// per-protocol (build.go), the table is the catalogue.
type initEntry struct {
	name string
	desc string
}

var initRegistry = []initEntry{
	{"default", "the protocol's registry default (legitimate start for locks, random otherwise)"},
	{"random", "every register drawn from its state domain — the aftermath of a transient fault"},
	{"zero", "every register at the zero state"},
	{"uniform", "every register at init.value (protocols with a uniform legitimate family)"},
	{"worst", "the adversarial construction attaining the protocol's bound"},
	{"clean", "the all-unmatched clean start (matching)"},
}

// InitModes returns the registry names in presentation order.
func InitModes() []string {
	out := make([]string, len(initRegistry))
	for i, e := range initRegistry {
		out[i] = e.name
	}
	return out
}

// List renders the whole registry catalogue — every name a Scenario can
// reference, with one line of documentation each. The golden test pins
// this output, so registry growth is always a reviewed diff.
func List() string {
	var b strings.Builder
	b.WriteString("protocols:\n")
	for _, e := range protocolRegistry {
		params := ""
		if e.params != "" {
			params = " (params: " + e.params + ")"
		}
		fmt.Fprintf(&b, "  %-12s %s%s\n", e.name, e.desc, params)
		for _, pd := range ParamDomains(e.name) {
			fmt.Fprintf(&b, "  %-12s   %s: %s\n", "", pd.Param, pd.Domain)
		}
	}
	b.WriteString("topologies:\n")
	for _, e := range topologyRegistry {
		fmt.Fprintf(&b, "  %-12s %s\n", e.name, e.desc)
	}
	b.WriteString("daemons:\n")
	for _, e := range daemonRegistry {
		alias := ""
		if len(e.aliases) > 0 {
			alias = " (alias: " + strings.Join(e.aliases, ", ") + ")"
		}
		fmt.Fprintf(&b, "  %-12s %s%s\n", e.name, e.desc, alias)
	}
	b.WriteString("workloads:\n")
	for _, e := range workloadRegistry {
		fmt.Fprintf(&b, "  %-12s %s\n", e.name, e.desc)
	}
	b.WriteString("init modes:\n")
	for _, e := range initRegistry {
		fmt.Fprintf(&b, "  %-12s %s\n", e.name, e.desc)
	}
	b.WriteString("observers:\n")
	for _, e := range observerRegistry {
		fmt.Fprintf(&b, "  %-12s %s\n", e.name, e.desc)
	}
	return b.String()
}

// Package cli holds the flag-level helpers shared by the command-line
// tools under cmd/: the common -workers/-seed/-telemetry flag set every
// driver accepts with identical parsing and help text, and thin parsers
// delegating to the named registries of internal/scenario (topologies,
// daemons), so the CLI vocabulary and the scenario vocabulary are one and
// the same.
package cli

import (
	"flag"
	"fmt"
	"io"
	"strings"

	"specstab/internal/graph"
	"specstab/internal/scenario"
	"specstab/internal/sim"
	"specstab/internal/telemetry"
)

// Topologies lists the -topology values understood by ParseTopology.
var Topologies = strings.Join(scenario.TopologyNames(), ", ")

// ParseTopology builds the graph named by name with main size n (rows
// default to a near-square split for grid/torus; hypercube uses the
// dimension that fits n; randconn adds n/2 extra edges). It is the flag
// front of scenario.BuildTopology.
func ParseTopology(name string, n int, seed int64) (*graph.Graph, error) {
	return scenario.BuildTopology(scenario.TopologySpec{Name: name, N: n}, seed)
}

// Daemons lists the -daemon values understood by ParseDaemon.
var Daemons = strings.Join(scenario.DaemonNames(), ", ")

// ParseDaemon builds the daemon named by name for an n-vertex system;
// p is the activation probability of the distributed daemon.
func ParseDaemon[S comparable](name string, n int, p float64) (sim.Daemon[S], error) {
	return scenario.NewDaemon[S](scenario.DaemonSpec{Name: name, P: p}, n)
}

// Common is the flag set every driver shares; AddCommon registers the
// flags. Workers means "engine shard workers" for drivers running one
// engine and "trial pool workers" for the experiment harness — in both
// cases results are identical for every value, which is why one flag
// serves both.
type Common struct {
	// Workers is the -workers value (0 = GOMAXPROCS).
	Workers int
	// Seed is the -seed value driving all randomness.
	Seed int64
	// Telemetry is the -telemetry listen address ("" = disabled).
	// Executions are bitwise identical with telemetry on or off
	// (collection is a pure read; DESIGN.md §12).
	Telemetry string
}

// AddCommon registers the shared -workers, -seed and -telemetry flags on
// fs with the uniform help text of the repository's drivers.
func AddCommon(fs *flag.FlagSet) *Common {
	c := &Common{}
	fs.IntVar(&c.Workers, "workers", 0, "worker pool size (0 = GOMAXPROCS); results are identical for every value")
	fs.Int64Var(&c.Seed, "seed", 1, "random seed")
	fs.StringVar(&c.Telemetry, "telemetry", "", "serve live telemetry — Prometheus /metrics and /debug/pprof/ — on this address (e.g. 127.0.0.1:9090; port 0 picks one; empty disables); executions are identical either way")
	return c
}

// StartTelemetry starts the telemetry hub and HTTP exporter when
// -telemetry was set, printing the bound address (so ":0" requests are
// scrapeable) to out. It returns a nil hub when the flag is unset. The
// exporter lives for the remainder of the process.
func (c *Common) StartTelemetry(out io.Writer) (*telemetry.Hub, error) {
	if c.Telemetry == "" {
		return nil, nil
	}
	hub := telemetry.New()
	srv, err := telemetry.Serve(hub, c.Telemetry)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "telemetry : serving /metrics on %s\n", srv.Addr())
	return hub, nil
}

// TelemetryDrivers lists the drivers that serve the -telemetry flag.
// RejectTelemetry names them, so adding a serving driver here is the
// whole registration — the accept list is maintained data, not prose
// baked into an error string.
var TelemetryDrivers = []string{"locksim", "lockd", "specbench", "ssme"}

// RejectTelemetry returns the uniform error for drivers that accept the
// common flag set but have no telemetry surface to wire it to.
func (c *Common) RejectTelemetry(driver string) error {
	if c.Telemetry == "" {
		return nil
	}
	return fmt.Errorf("-telemetry is not supported by %s (%s serve it)",
		driver, strings.Join(TelemetryDrivers, ", "))
}

// EngineSpec returns the scenario-layer engine spec the flags select.
func (c *Common) EngineSpec() scenario.EngineSpec {
	return scenario.EngineSpec{Workers: c.Workers}
}

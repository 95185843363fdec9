// Command ssme runs the paper's mutual-exclusion protocol on a chosen
// topology under a chosen daemon and reports the observed stabilization
// against the paper's bounds, optionally with an execution trace. The run
// itself is a declarative internal/scenario value — the flags only fill
// it in — so any invocation is reproducible as a scenario file.
//
// Examples:
//
//	ssme -topology ring -n 12 -daemon sync -init worst -trace 1
//	ssme -topology grid -n 12 -daemon distributed -p 0.5 -init random
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"specstab/internal/cli"
	"specstab/internal/core"
	"specstab/internal/scenario"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "ssme:", err)
		os.Exit(1)
	}
}

// run is the testable entry point: flags are parsed from args and the
// report written to out (the smoke tests drive it directly).
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("ssme", flag.ContinueOnError)
	fs.SetOutput(out)
	var (
		topology   = fs.String("topology", "ring", "topology: "+cli.Topologies)
		n          = fs.Int("n", 12, "number of vertices")
		daemonName = fs.String("daemon", "sync", "daemon: "+cli.Daemons)
		prob       = fs.Float64("p", 0.5, "activation probability of the distributed daemon")
		initMode   = fs.String("init", "random", "initial configuration: random, worst (Theorem 4 islands), uniform")
		traceEvery = fs.Int("trace", 0, "print a trace every N steps (0 disables)")
		maxSteps   = fs.Int("steps", 0, "step budget (0 = protocol service window)")
		common     = cli.AddCommon(fs)
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	switch *initMode {
	case "random", "worst", "uniform":
	default:
		return fmt.Errorf("unknown -init %q (random, worst, uniform)", *initMode)
	}
	hub, err := common.StartTelemetry(out)
	if err != nil {
		return err
	}

	sc := &scenario.Scenario{
		Name:      "ssme-run",
		Seed:      common.Seed,
		Protocol:  scenario.ProtocolSpec{Name: "ssme"},
		Topology:  scenario.TopologySpec{Name: *topology, N: *n},
		Daemon:    scenario.DaemonSpec{Name: *daemonName, P: *prob},
		Engine:    common.EngineSpec(),
		Init:      scenario.InitSpec{Mode: *initMode},
		Stop:      scenario.StopSpec{Steps: *maxSteps},
		Observers: []scenario.ObserverSpec{{Name: "convergence"}},
	}
	if *traceEvery > 0 {
		sc.Observers = append(sc.Observers, scenario.ObserverSpec{Name: "trace", Every: *traceEvery})
	}
	if hub != nil {
		sc.Telemetry = hub
		sc.Observers = append(sc.Observers, scenario.ObserverSpec{Name: "telemetry"})
	}
	r, err := scenario.Build(sc)
	if err != nil {
		return err
	}
	p := r.Protocol().(*core.Protocol)
	g := r.Graph()

	fmt.Fprintf(out, "graph     : %s\n", g)
	fmt.Fprintf(out, "clock     : %s\n", p.Clock())
	fmt.Fprintf(out, "daemon    : %s\n", r.DaemonName())
	fmt.Fprintf(out, "bounds    : sync ⌈diam/2⌉ = %d steps; unfair ≤ %d moves; Γ₁ by 2n+diam = %d sync steps\n",
		core.SyncBound(g), p.UnfairBoundMoves(), p.SyncUnisonHorizon())

	if err := r.Execute(); err != nil {
		return err
	}
	rep := r.Observer("convergence").(*scenario.Convergence).RunReport()
	horizon := r.Horizon()

	fmt.Fprintf(out, "\nexecution : %d steps, %d moves (horizon %d)\n", rep.StepsExecuted, rep.MovesExecuted, horizon)
	fmt.Fprintf(out, "conv time : %d steps (last double privilege at step %d)\n", rep.ConvergenceSteps, rep.LastViolationStep)
	fmt.Fprintf(out, "Γ₁ entry  : step %d (%d moves)\n", rep.FirstLegitStep, rep.FirstLegitMoves)
	fmt.Fprintf(out, "closure   : broken=%v\n", rep.ClosureBroken)
	if r.DaemonName() == "sd" {
		status := "within bound"
		if rep.ConvergenceSteps > core.SyncBound(g) {
			status = "BOUND VIOLATED"
		}
		fmt.Fprintf(out, "Theorem 2 : measured %d ≤ %d — %s\n", rep.ConvergenceSteps, core.SyncBound(g), status)
	}
	if tr, ok := r.Observer("trace").(*scenario.Trace); ok && tr != nil {
		fmt.Fprintf(out, "\n%s\n", tr.Timeline())
		fmt.Fprintln(out, tr.Strip())
	}
	return nil
}

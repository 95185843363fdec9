// Command checker exhaustively model-checks a protocol on a small
// instance: exact worst-case stabilization over every unfair-daemon
// schedule, closure of the legitimacy set, deadlock freedom, safety inside
// legitimacy — or a concrete divergence witness when the instance is
// mis-parameterized (e.g. Dijkstra's ring with K < n).
//
// Both checks run on a dense index of the state space, so instances near
// -max-configs stay practical: SSME on -topology path -n 4 (34⁴ ≈ 1.34M
// configurations) finishes its unfair-daemon check and its synchronous
// sweep in about two seconds on a 2-core x86 host, where a string-keyed
// DFS and one simulation engine per configuration took about two minutes.
//
// Examples:
//
//	checker -system ssme -topology ring -n 3
//	checker -system unison -topology path -n 4 -minimal
//	checker -system dijkstra -n 4 -k 2
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"specstab/internal/check"
	"specstab/internal/cli"
	"specstab/internal/core"
	"specstab/internal/dijkstra"
	"specstab/internal/graph"
	"specstab/internal/scenario"
	"specstab/internal/unison"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "checker:", err)
		os.Exit(1)
	}
}

// run is the testable entry point: flags are parsed from args and the
// report written to out (the smoke tests drive it directly).
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("checker", flag.ContinueOnError)
	fs.SetOutput(out)
	var (
		system   = fs.String("system", "ssme", "system to check: ssme, unison, dijkstra")
		topology = fs.String("topology", "ring", "topology: "+cli.Topologies)
		n        = fs.Int("n", 3, "number of vertices (state spaces grow as |domain|^n)")
		k        = fs.Int("k", 0, "dijkstra: counter states K (default n; K<n demonstrates divergence)")
		minimal  = fs.Bool("minimal", false, "unison: use minimal clock parameters instead of α=n")
		central  = fs.Bool("central", false, "restrict the adversary to the central daemon")
		maxCfg   = fs.Int("max-configs", 2_000_000, "state-space safety valve")
		common   = cli.AddCommon(fs)
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := common.RejectTelemetry("checker"); err != nil {
		return err
	}

	switch *system {
	case "ssme":
		g, err := cli.ParseTopology(*topology, *n, common.Seed)
		if err != nil {
			return err
		}
		p, err := buildProto[*core.Protocol](scenario.ProtocolSpec{Name: "ssme"}, g, *topology)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "checking SSME on %s — clock %s, domain %d^%d\n", g, p.Clock(), p.Clock().Size(), g.N())
		rep, err := check.Exhaustive[int](p, check.Options[int]{
			Domain:       func(int) []int { return p.Clock().Values() },
			Legit:        p.Legitimate,
			Safe:         p.SafeME,
			Central:      *central,
			CheckClosure: true,
			MaxConfigs:   *maxCfg,
		})
		if err != nil {
			return err
		}
		printReport(out, "Γ₁", rep.Configs, rep.LegitCount, rep.DeadlockCount, rep.ClosureViolations,
			rep.UnsafeLegit, rep.WorstSteps, rep.WorstMoves, rep.NonConverging, fmt.Sprint(rep.CycleWitness))
		fmt.Fprintf(out, "Theorem 3 bound: %d moves (exact worst: %d)\n", p.UnfairBoundMoves(), rep.WorstMoves)

		sync, err := check.SyncWorst[int](p, check.SyncOptions[int]{
			Domain:     func(int) []int { return p.Clock().Values() },
			Safe:       p.SafeME,
			Legit:      p.Legitimate,
			Horizon:    p.ServiceWindow(),
			MaxConfigs: *maxCfg,
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "exact synchronous worst case: %d steps (Theorem 2 bound ⌈diam/2⌉ = %d) from %v\n",
			sync.WorstSteps, core.SyncBound(g), sync.WorstConfig)
		return nil

	case "unison":
		g, err := cli.ParseTopology(*topology, *n, common.Seed)
		if err != nil {
			return err
		}
		u, err := buildProto[*unison.Protocol](scenario.ProtocolSpec{Name: "unison", Minimal: *minimal}, g, *topology)
		if err != nil {
			return err
		}
		params := u.Clock()
		fmt.Fprintf(out, "checking unison on %s — clock %s, domain %d^%d\n", g, params, params.Size(), g.N())
		rep, err := check.Exhaustive[int](u, check.Options[int]{
			Domain:       func(int) []int { return u.Clock().Values() },
			Legit:        u.Legitimate,
			Central:      *central,
			CheckClosure: true,
			MaxConfigs:   *maxCfg,
		})
		if err != nil {
			return err
		}
		printReport(out, "Γ₁", rep.Configs, rep.LegitCount, rep.DeadlockCount, rep.ClosureViolations,
			rep.UnsafeLegit, rep.WorstSteps, rep.WorstMoves, rep.NonConverging, fmt.Sprint(rep.CycleWitness))
		return nil

	case "dijkstra":
		kk := *k
		if kk == 0 {
			kk = *n
		}
		p, err := buildProto[*dijkstra.Protocol](
			scenario.ProtocolSpec{Name: "dijkstra", K: kk, Unchecked: true}, graph.Ring(*n), "ring")
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "checking %s — domain %d^%d\n", p.Name(), kk, *n)
		domain := make([]int, kk)
		for i := range domain {
			domain[i] = i
		}
		rep, err := check.Exhaustive[int](p, check.Options[int]{
			Domain:       func(int) []int { return domain },
			Legit:        p.Legitimate,
			Safe:         p.SafeME,
			Central:      *central,
			CheckClosure: true,
			MaxConfigs:   *maxCfg,
		})
		if err != nil {
			return err
		}
		printReport(out, "single token", rep.Configs, rep.LegitCount, rep.DeadlockCount, rep.ClosureViolations,
			rep.UnsafeLegit, rep.WorstSteps, rep.WorstMoves, rep.NonConverging, fmt.Sprint(rep.CycleWitness))
		if kk < *n && !rep.NonConverging {
			fmt.Fprintln(out, "note: expected divergence for K < n was NOT found — check the instance")
		}
		return nil

	default:
		return fmt.Errorf("unknown -system %q (ssme, unison, dijkstra)", *system)
	}
}

func printReport(out io.Writer, legitName string, configs, legit, deadlocks, closureViol, unsafeLegit, worstSteps, worstMoves int, diverges bool, witness string) {
	fmt.Fprintf(out, "configurations  : %d (%d in %s)\n", configs, legit, legitName)
	fmt.Fprintf(out, "deadlocks       : %d\n", deadlocks)
	fmt.Fprintf(out, "closure breaks  : %d\n", closureViol)
	fmt.Fprintf(out, "unsafe legit    : %d\n", unsafeLegit)
	if diverges {
		fmt.Fprintf(out, "DIVERGES        : cycle outside the legitimacy set, witness %s\n", witness)
		return
	}
	fmt.Fprintf(out, "exact worst case: %d steps / %d moves to legitimacy (over ALL schedules)\n", worstSteps, worstMoves)
}

// buildProto constructs a protocol through the scenario registry and
// asserts its concrete type — the checker needs the protocol-specific
// predicates and domains the generic interface does not carry.
func buildProto[T any](spec scenario.ProtocolSpec, g *graph.Graph, topo string) (T, error) {
	var zero T
	pAny, err := scenario.BuildProtocol(spec, g, topo)
	if err != nil {
		return zero, err
	}
	return pAny.(T), nil
}

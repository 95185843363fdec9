// Command topoinfo prints the topology constants of a communication graph
// and the SSME clock it implies: n, m, diam(g), hole(g), cyclo and lcp
// bounds, the cherry parameters, and the privilege values.
//
// Example:
//
//	topoinfo -topology torus -n 16
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"specstab/internal/cli"
	"specstab/internal/core"
	"specstab/internal/scenario"
	"specstab/internal/unison"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "topoinfo:", err)
		os.Exit(1)
	}
}

// run is the testable entry point: flags are parsed from args and the
// report written to out (the smoke tests drive it directly).
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("topoinfo", flag.ContinueOnError)
	fs.SetOutput(out)
	var (
		topology = fs.String("topology", "ring", "topology: "+cli.Topologies)
		n        = fs.Int("n", 12, "number of vertices")
		dot      = fs.Bool("dot", false, "emit Graphviz DOT instead of the report")
		figure   = fs.Bool("figure", false, "render the SSME clock cherry")
		common   = cli.AddCommon(fs)
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := common.RejectTelemetry("topoinfo"); err != nil {
		return err
	}

	g, err := cli.ParseTopology(*topology, *n, common.Seed)
	if err != nil {
		return err
	}
	if *dot {
		fmt.Fprint(out, g.DOT(nil))
		return nil
	}

	fmt.Fprintf(out, "graph        : %s\n", g.Name())
	fmt.Fprintf(out, "n, m         : %d, %d\n", g.N(), g.M())
	fmt.Fprintf(out, "diameter     : %d\n", g.Diameter())
	fmt.Fprintf(out, "radius       : %d\n", g.Radius())
	u, v := g.Peripheral()
	fmt.Fprintf(out, "peripheral   : (%d, %d)\n", u, v)
	if h, exact := g.Hole(); exact {
		fmt.Fprintf(out, "hole(g)      : %d (exact)\n", h)
	} else {
		fmt.Fprintf(out, "hole(g)      : ≤ %d (search budget exhausted)\n", g.N())
	}
	fmt.Fprintf(out, "cyclo bound  : %d\n", g.CycloBound())
	if l, exact := g.LongestChordlessPath(); exact {
		fmt.Fprintf(out, "lcp(g)       : %d (exact)\n", l)
	} else {
		fmt.Fprintf(out, "lcp(g)       : ≤ %d (search budget exhausted)\n", g.N())
	}
	fmt.Fprintf(out, "is tree      : %v\n", g.IsTree())

	pAny, err := scenario.BuildProtocol(scenario.ProtocolSpec{Name: "ssme"}, g, *topology)
	if err != nil {
		return err
	}
	p := pAny.(*core.Protocol)
	fmt.Fprintf(out, "\nSSME clock   : %s\n", p.Clock())
	fmt.Fprintf(out, "sync bound   : ⌈diam/2⌉ = %d steps (Theorems 2+4)\n", core.SyncBound(g))
	fmt.Fprintf(out, "unfair bound : %d moves (Theorem 3)\n", p.UnfairBoundMoves())
	fmt.Fprintf(out, "priv values  : id 0 → %d … id n−1 → %d (spacing 2·diam = %d)\n",
		p.PrivilegeValue(0), p.PrivilegeValue(g.N()-1), 2*g.Diameter())
	fmt.Fprintf(out, "unison (min) : %s would already stabilize plain unison\n", unison.MinimalParams(g))
	if *figure {
		fmt.Fprintf(out, "\n%s", p.Clock().Render())
	}
	return nil
}

// Command locksim drives the mutual-exclusion service layer: a lock
// protocol (SSME, Dijkstra's token ring, or ℓ-exclusion) under a chosen
// daemon serves an open- or closed-loop client population through the
// grant adapter of internal/service, optionally under a live fault storm,
// and reports service-level metrics — grant latency percentiles,
// grants/tick, fairness, starvation, unsafe exposure, and per-burst
// client-observed recovery.
//
// Runs are declarative internal/scenario values: the flags fill one in,
// or -scenario loads one from a JSON file (with any number of observers
// attached — see -list for the registry). -workers and -seed set on the
// command line override the file.
//
// Examples:
//
//	locksim -protocol ssme -topology ring -n 64 -daemon sync -clients 1000 -ticks 20000
//	locksim -protocol dijkstra -n 32 -workload open -rate 0.8 -ticks 5000
//	locksim -protocol ssme -n 16 -bursts 3 -corrupt 16
//	locksim -scenario examples/scenarios/ssme-storm.json
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"specstab/internal/campaign"
	"specstab/internal/cli"
	"specstab/internal/scenario"
	"specstab/internal/stats"
	"specstab/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "locksim:", err)
		os.Exit(1)
	}
}

// run is the testable entry point: flags are parsed from args and the
// report written to out (the smoke tests drive it directly).
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("locksim", flag.ContinueOnError)
	fs.SetOutput(out)
	var (
		scenarioFile = fs.String("scenario", "", "run a scenario JSON file instead of the flag-built one")
		campaignFile = fs.String("campaign", "", "run a campaign (storm grid) JSON file or built-in name instead of one scenario")
		checkpoint   = fs.String("checkpoint", "", "campaign checkpoint journal: completed cells resume from it")
		list         = fs.Bool("list", false, "print the scenario registry catalogue and exit")
		protocol     = fs.String("protocol", "ssme", "lock protocol: ssme, dijkstra, lexclusion")
		topology     = fs.String("topology", "ring", "topology: "+cli.Topologies)
		n            = fs.Int("n", 12, "number of vertices")
		lval         = fs.Int("l", 2, "concurrency level ℓ (lexclusion only)")
		daemonName   = fs.String("daemon", "sync", "daemon: "+cli.Daemons)
		prob         = fs.Float64("p", 0.5, "activation probability of the distributed daemon")
		workload     = fs.String("workload", "closed", "arrival process: closed, open")
		clients      = fs.Int("clients", 0, "closed-loop population (0 = 2n)")
		rate         = fs.Float64("rate", 0.5, "open-loop arrivals per tick")
		thinkMin     = fs.Int("think", 0, "closed-loop minimum think time (ticks)")
		thinkMax     = fs.Int("thinkmax", 3, "closed-loop maximum think time (ticks)")
		hold         = fs.Int("hold", 1, "critical-section hold time (ticks)")
		ticks        = fs.Int("ticks", 0, "service ticks to run (0 = one service window)")
		bursts       = fs.Int("bursts", 0, "fault bursts to inject mid-service (0 = none)")
		corrupt      = fs.Int("corrupt", 0, "registers corrupted per burst (0 = all)")
		common       = cli.AddCommon(fs)
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		fmt.Fprint(out, scenario.List())
		return nil
	}
	hub, err := common.StartTelemetry(out)
	if err != nil {
		return err
	}

	if *campaignFile != "" {
		return runCampaignFile(fs, *campaignFile, *checkpoint, common, hub, out)
	}
	if *checkpoint != "" {
		return fmt.Errorf("-checkpoint needs -campaign")
	}
	if *scenarioFile != "" {
		return runScenarioFile(fs, *scenarioFile, common, hub, out)
	}

	// The flag-built scenario: exactly the construction this driver has
	// always performed, as data.
	sc := &scenario.Scenario{
		Name:     "locksim",
		Seed:     common.Seed,
		Protocol: scenario.ProtocolSpec{Name: *protocol, L: *lval},
		Topology: scenario.TopologySpec{Name: *topology, N: *n},
		Daemon:   scenario.DaemonSpec{Name: *daemonName, P: *prob},
		Engine:   common.EngineSpec(),
		Workload: &scenario.WorkloadSpec{
			Kind:     *workload,
			Clients:  *clients,
			ThinkMin: *thinkMin,
			ThinkMax: *thinkMax,
			Rate:     *rate,
			Hold:     *hold,
		},
		Stop: scenario.StopSpec{Ticks: *ticks},
	}
	if *bursts > 0 {
		sc.Storm = &scenario.StormSpec{Bursts: *bursts, Corrupt: *corrupt}
	}
	if hub != nil {
		sc.Telemetry = hub
		sc.Observers = append(sc.Observers, scenario.ObserverSpec{Name: "telemetry"})
	}
	r, err := scenario.Build(sc)
	if err != nil {
		return err
	}

	fmt.Fprintf(out, "lock service: %s under %s, %s, capacity %d, hold %d\n\n",
		protoName(r), r.DaemonName(), r.Workload().Name(), r.Capacity(), r.Hold())

	if err := r.Execute(); err != nil {
		return err
	}

	if recs := r.Recoveries(); recs != nil {
		table := stats.NewTable("fault storm — client-observed recovery",
			"burst", "at tick", "resumed", "stall ticks", "legit ticks",
			"unsafe ticks", "pre grants/tick", "post p95 lat")
		for i, rec := range recs {
			legit := fmt.Sprintf("%d", rec.LegitTicks)
			if rec.LegitTicks < 0 {
				legit = "—"
			}
			table.AddRow(i+1, rec.BurstTick, rec.Resumed, rec.StallTicks, legit,
				rec.UnsafeTicks, fmt.Sprintf("%.4f", rec.Pre.GrantsPerTick), rec.Post.LatP95)
		}
		fmt.Fprintln(out, table)
	}

	fmt.Fprintln(out, "service totals")
	fmt.Fprintln(out, "==============")
	fmt.Fprint(out, r.Service().Totals().Render())
	return nil
}

// protoName renders the lock's report name.
func protoName(r *scenario.Run) string {
	type named interface{ Name() string }
	return r.Protocol().(named).Name()
}

// hasObserver reports whether sc already names the observer, so -telemetry
// on a scenario file never attaches it twice.
func hasObserver(sc *scenario.Scenario, name string) bool {
	for _, o := range sc.Observers {
		if o.Name == name {
			return true
		}
	}
	return false
}

// runCampaignFile runs a whole storm grid — a campaign JSON file or a
// built-in name — through the campaign runner, with the same override
// rules as -scenario: only -workers and -seed may accompany it.
func runCampaignFile(fs *flag.FlagSet, nameOrPath, checkpoint string, common *cli.Common, hub *telemetry.Hub, out io.Writer) error {
	var c *campaign.Campaign
	var err error
	if strings.HasSuffix(nameOrPath, ".json") || strings.ContainsAny(nameOrPath, "/\\") {
		c, err = campaign.Load(nameOrPath)
	} else {
		c, err = campaign.ByName(nameOrPath)
	}
	if err != nil {
		return err
	}
	opts := campaign.RunOptions{
		Pool:       campaign.Pool{Workers: common.Workers},
		Checkpoint: checkpoint,
		Telemetry:  hub,
	}
	var ignored []string
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "workers":
			spec := common.EngineSpec()
			opts.Engine = &spec
		case "seed":
			c.Base.Seed = common.Seed
		case "campaign", "checkpoint", "list", "telemetry":
		default:
			ignored = append(ignored, "-"+f.Name)
		}
	})
	if len(ignored) > 0 {
		return fmt.Errorf("%s cannot be combined with -campaign: the file defines the grid (only -workers and -seed override it)",
			strings.Join(ignored, ", "))
	}
	res, err := c.Run(opts)
	if err != nil {
		return err
	}
	if res.Resumed > 0 {
		fmt.Fprintf(out, "resumed %d completed cell(s) from %s\n\n", res.Resumed, checkpoint)
	}
	fmt.Fprintln(out, res.Table.String())
	return nil
}

// runScenarioFile loads, overrides, builds, executes and reports a
// scenario file. Command-line -workers/-seed (when explicitly set)
// override the file's values, which is what lets CI drive one checked-in
// file across worker counts; any other explicitly-set run-shaping flag is
// an error rather than a silent no-op.
func runScenarioFile(fs *flag.FlagSet, path string, common *cli.Common, hub *telemetry.Hub, out io.Writer) error {
	sc, err := scenario.Load(path)
	if err != nil {
		return err
	}
	var ignored []string
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "workers":
			sc.Engine.Workers = common.Workers
		case "seed":
			sc.Seed = common.Seed
		case "scenario", "list", "telemetry":
		default:
			ignored = append(ignored, "-"+f.Name)
		}
	})
	if len(ignored) > 0 {
		return fmt.Errorf("%s cannot be combined with -scenario: the file defines the run (only -workers and -seed override it)",
			strings.Join(ignored, ", "))
	}
	if hub != nil {
		sc.Telemetry = hub
		if !hasObserver(sc, "telemetry") {
			sc.Observers = append(sc.Observers, scenario.ObserverSpec{Name: "telemetry"})
		}
	}
	r, err := scenario.Build(sc)
	if err != nil {
		return err
	}
	if err := r.Execute(); err != nil {
		return err
	}
	return r.WriteReport(out)
}

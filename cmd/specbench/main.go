// Command specbench regenerates the paper's "evaluation": every experiment
// of DESIGN.md §4 (E1–E13), printed as plain-text tables or CSV. Each row
// of each table is a deterministic run of the one packed engine, so the
// -workers knob means exactly what it means everywhere else.
//
// Usage:
//
//	specbench [-experiment e3] [-quick] [-seed 42] [-csv] [-workers 8]
//	specbench -campaign examples/campaigns/e13a-storm.json [-checkpoint grid.journal]
//	specbench -campaign e13a-storm [-dump]
//	specbench -list
//
// Without -experiment the full suite runs in order. Independent cells run
// on a worker pool (-workers, default GOMAXPROCS); tables are bitwise
// identical for every worker count. EXPERIMENTS.md records a quick run
// next to the paper's claims.
//
// -campaign runs a declarative sweep instead (DESIGN.md §9): a campaign
// JSON file, or a built-in campaign by name. -checkpoint journals
// completed cells so an interrupted grid resumes; -dump prints the
// resolved campaign JSON without running it; -list catalogues the
// built-ins, metrics and reduce statistics.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"specstab/internal/campaign"
	"specstab/internal/cli"
	"specstab/internal/experiments"
	"specstab/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "specbench:", err)
		os.Exit(1)
	}
}

// run is the testable entry point: flags are parsed from args and the
// tables written to out (the smoke tests drive it directly).
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("specbench", flag.ContinueOnError)
	fs.SetOutput(out)
	var (
		expID      = fs.String("experiment", "", "experiment id (e1..e13); empty runs all")
		quick      = fs.Bool("quick", false, "reduced sizes and trial counts")
		csv        = fs.Bool("csv", false, "emit CSV instead of aligned tables")
		campFlag   = fs.String("campaign", "", "run a campaign: a JSON file path or a built-in name (see -list)")
		checkpoint = fs.String("checkpoint", "", "campaign checkpoint journal: completed cells resume from it")
		dump       = fs.Bool("dump", false, "print the resolved campaign JSON instead of running it")
		list       = fs.Bool("list", false, "print the campaign catalogue (built-ins, metrics, reduce statistics) and exit")
		common     = cli.AddCommon(fs)
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		printCatalogue(out)
		return nil
	}
	hub, err := common.StartTelemetry(out)
	if err != nil {
		return err
	}
	if *campFlag != "" {
		return runCampaign(fs, *campFlag, *checkpoint, *dump, *csv, common, hub, out)
	}
	if *checkpoint != "" || *dump {
		return fmt.Errorf("-checkpoint and -dump need -campaign")
	}

	cfg := experiments.RunConfig{Quick: *quick, Seed: common.Seed, Workers: common.Workers}
	list2 := experiments.Registry()
	if *expID != "" {
		exp, err := experiments.ByID(*expID)
		if err != nil {
			return err
		}
		list2 = []experiments.Experiment{exp}
	}

	// Suite progress rides the campaign series: one "cell" per experiment,
	// published from this goroutine between experiments, so a scrape during
	// a long suite shows which table is being regenerated.
	progress := telemetry.NewProgress(hub, len(list2), 0)
	for _, exp := range list2 {
		fmt.Fprintf(out, "### %s — %s\n\n", exp.ID, exp.Title)
		tables, err := exp.Run(cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", exp.ID, err)
		}
		for _, t := range tables {
			if *csv {
				fmt.Fprintln(out, t.CSV())
			} else {
				fmt.Fprintln(out, t.String())
			}
		}
		progress.CellDone([]string{exp.ID}, "", true)
	}
	return nil
}

// runCampaign resolves (file path or built-in name), then dumps or runs
// the campaign. An explicitly set -workers flag overrides every
// cell's engine spec (executions are identical; only cost changes) and an
// explicit -seed overrides the base seed — mirroring `locksim -scenario`.
func runCampaign(fs *flag.FlagSet, nameOrPath, checkpoint string, dump, csv bool, common *cli.Common, hub *telemetry.Hub, out io.Writer) error {
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
		case "campaign", "checkpoint", "dump", "csv", "list", "telemetry":
		default:
			ignored = append(ignored, "-"+f.Name)
		}
	})
	if len(ignored) > 0 {
		return fmt.Errorf("%s cannot be combined with -campaign: the file defines the grid (only -workers, -seed, -checkpoint, -dump and -csv apply)",
			strings.Join(ignored, ", "))
	}
	if dump {
		return c.Encode(out)
	}
	if csv {
		opts.CSV = out
		_, err := c.Run(opts)
		return err
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

// printCatalogue lists everything -campaign can name.
func printCatalogue(out io.Writer) {
	fmt.Fprintln(out, "built-in campaigns:")
	for _, c := range campaign.Builtins() {
		fmt.Fprintf(out, "  %-16s %s\n", c.Name, c.Doc)
	}
	fmt.Fprintln(out, "metrics:")
	fmt.Fprint(out, campaign.MetricDocs())
	fmt.Fprintln(out, "reduce statistics:")
	fmt.Fprint(out, campaign.ReduceDocs())
	fmt.Fprintln(out, "experiments:")
	for _, e := range experiments.Registry() {
		fmt.Fprintf(out, "  %-4s %s\n", e.ID, e.Title)
	}
}

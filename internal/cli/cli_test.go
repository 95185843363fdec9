package cli

import (
	"flag"
	"strings"
	"testing"
)

func TestParseTopologyAll(t *testing.T) {
	t.Parallel()
	for _, name := range strings.Split(Topologies, ", ") {
		g, err := ParseTopology(name, 12, 1)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if g.N() < 1 {
			t.Errorf("%s: empty graph", name)
		}
	}
	if _, err := ParseTopology("klein-bottle", 8, 1); err == nil {
		t.Error("want error for unknown topology")
	}
}

func TestGridSplitIsBalanced(t *testing.T) {
	t.Parallel()
	g, err := ParseTopology("grid", 12, 1)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 12 {
		t.Errorf("grid n=%d, want 12", g.N())
	}
	if g.Name() != "grid-3x4" {
		t.Errorf("grid split %q, want near-square 3x4", g.Name())
	}
}

func TestParseDaemonAll(t *testing.T) {
	t.Parallel()
	for _, name := range strings.Split(Daemons, ", ") {
		d, err := ParseDaemon[int](name, 8, 0.5)
		if name == "recorded" {
			// The recorded daemon replays an injected schedule (netrun
			// journals carry one); no flag can supply it, so the parser
			// must refuse rather than build a daemon that panics later.
			if err == nil || !strings.Contains(err.Error(), "schedule") {
				t.Errorf("recorded: want an injected-schedule error, got %v", err)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if d.Name() == "" {
			t.Errorf("%s: empty daemon name", name)
		}
	}
	if _, err := ParseDaemon[int]("maxwell", 8, 0.5); err == nil {
		t.Error("want error for unknown daemon")
	}
	// Out-of-range p falls back to 0.5 rather than panicking.
	if _, err := ParseDaemon[int]("distributed", 8, 7.0); err != nil {
		t.Errorf("distributed with bad p: %v", err)
	}
}

func TestAddCommonDefaultsAndResolve(t *testing.T) {
	t.Parallel()
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	c := AddCommon(fs)
	if err := fs.Parse([]string{"-workers", "3", "-seed", "42"}); err != nil {
		t.Fatal(err)
	}
	if spec := c.EngineSpec(); spec.Workers != 3 || c.Seed != 42 {
		t.Fatalf("common flags parsed as %+v (engine spec %+v)", c, spec)
	}

	fs2 := flag.NewFlagSet("y", flag.ContinueOnError)
	c2 := AddCommon(fs2)
	if err := fs2.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if c2.Workers != 0 || c2.Seed != 1 || c2.Telemetry != "" {
		t.Fatalf("common defaults %+v, want 0/1/empty", c2)
	}
}

func TestRejectTelemetryNamesTheServingDrivers(t *testing.T) {
	t.Parallel()
	c := &Common{}
	if err := c.RejectTelemetry("specsim"); err != nil {
		t.Fatalf("unset -telemetry must pass: %v", err)
	}
	c.Telemetry = "127.0.0.1:0"
	err := c.RejectTelemetry("specsim")
	if err == nil {
		t.Fatal("set -telemetry on a non-serving driver must fail")
	}
	for _, d := range TelemetryDrivers {
		if !strings.Contains(err.Error(), d) {
			t.Errorf("error %q omits serving driver %q", err, d)
		}
	}
	found := false
	for _, d := range TelemetryDrivers {
		if d == "lockd" {
			found = true
		}
	}
	if !found {
		t.Error("lockd serves -telemetry and must be in TelemetryDrivers")
	}
}

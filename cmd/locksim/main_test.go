package main

// Smoke tests: flag parsing, one service run per protocol, and a storm.

import (
	"bytes"
	"strings"
	"testing"
)

func TestRunClosedLoopSSME(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-protocol", "ssme", "-n", "8", "-ticks", "400"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"lock service", "SSME@ring-8", "service totals", "grants/tick", "jain"} {
		if !strings.Contains(s, want) {
			t.Fatalf("report missing %q:\n%s", want, s)
		}
	}
}

func TestRunOpenLoopDijkstra(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-protocol", "dijkstra", "-n", "8", "-workload", "open", "-rate", "0.4", "-ticks", "200"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "dijkstra-kstate") {
		t.Fatalf("report missing protocol name:\n%s", out.String())
	}
}

func TestRunStormLExclusion(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-protocol", "lexclusion", "-n", "8", "-l", "2", "-bursts", "1", "-ticks", "300"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"fault storm", "stall ticks", "legit ticks"} {
		if !strings.Contains(s, want) {
			t.Fatalf("storm report missing %q:\n%s", want, s)
		}
	}
}

func TestRunBackendsAgree(t *testing.T) {
	drive := func(workers string) string {
		var out bytes.Buffer
		if err := run([]string{"-protocol", "ssme", "-n", "9", "-daemon", "distributed",
			"-ticks", "300", "-workers", workers}, &out); err != nil {
			t.Fatal(err)
		}
		return out.String()
	}
	if drive("1") != drive("8") {
		t.Fatal("service reports diverge between -workers 1 and 8")
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	var out bytes.Buffer
	for _, args := range [][]string{
		{"-protocol", "nonsense"},
		{"-protocol", "dijkstra", "-topology", "grid"},
		{"-workload", "nonsense"},
		{"-daemon", "nonsense"},
		{"-bogus"},
	} {
		if err := run(args, &out); err == nil {
			t.Fatalf("want error for %v", args)
		}
	}
}

func TestRunScenarioFile(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-scenario", "../../examples/scenarios/ssme-storm.json"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	// The checked-in storm scenario attaches three observers; all of their
	// reports must appear in one run.
	for _, want := range []string{"ssme-storm", "fault storm", "service totals", "convergence", "guards"} {
		if !strings.Contains(s, want) {
			t.Fatalf("scenario report missing %q:\n%s", want, s)
		}
	}
}

func TestRunScenarioFileOverrides(t *testing.T) {
	drive := func(extra ...string) string {
		var out bytes.Buffer
		args := append([]string{"-scenario", "../../examples/scenarios/ssme-storm.json"}, extra...)
		if err := run(args, &out); err != nil {
			t.Fatal(err)
		}
		return out.String()
	}
	// -workers overrides the file without changing the execution.
	if drive("-workers", "1") != drive("-workers", "8") {
		t.Fatal("scenario report diverges between worker overrides")
	}
	// -seed overrides the file's seed and must change the execution.
	if drive() == drive("-seed", "99") {
		t.Fatal("seed override had no effect")
	}
}

func TestRunList(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-list"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"protocols:", "observers:", "ssme", "steplog"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("-list output missing %q", want)
		}
	}
}

func TestRunScenarioFileRejectsShapingFlags(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-scenario", "../../examples/scenarios/ssme-storm.json", "-n", "64"}, &out)
	if err == nil || !strings.Contains(err.Error(), "-n cannot be combined") {
		t.Fatalf("want a conflict error naming -n, got %v", err)
	}
}

func TestRunCampaign(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-campaign", "stall-curve"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "stallTicks") {
		t.Fatalf("campaign table missing metric column:\n%s", out.String())
	}
}

func TestRunCampaignRejectsShapingFlags(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-campaign", "stall-curve", "-n", "32"}, &out)
	if err == nil || !strings.Contains(err.Error(), "cannot be combined with -campaign") {
		t.Fatalf("err = %v, want the shaping-flag rejection", err)
	}
	var out2 bytes.Buffer
	if err := run([]string{"-checkpoint", "x.journal"}, &out2); err == nil {
		t.Fatal("-checkpoint without -campaign accepted")
	}
}

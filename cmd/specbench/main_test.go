package main

// Smoke tests: flag parsing, one quick experiment through the
// scenario-routed harness, and the whole quick suite against the tables
// recorded in EXPERIMENTS.md.

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunSingleExperimentQuick(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-experiment", "e1", "-quick"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"### e1", "cherry"} {
		if !strings.Contains(s, want) {
			t.Fatalf("report missing %q:\n%s", want, s)
		}
	}
}

// TestExperimentsMarkdownReproduces: EXPERIMENTS.md records the output of
// `specbench -quick -seed 1`; every table block in it must appear verbatim
// in a fresh run, so the document cannot drift from the code.
func TestExperimentsMarkdownReproduces(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join("..", "..", "EXPERIMENTS.md"))
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run([]string{"-quick", "-seed", "1"}, &out); err != nil {
		t.Fatal(err)
	}
	blocks := 0
	for _, part := range strings.Split(string(doc), "```text\n")[1:] {
		block, _, ok := strings.Cut(part, "```")
		if !ok {
			t.Fatal("unterminated text block in EXPERIMENTS.md")
		}
		blocks++
		if !strings.Contains(out.String(), block) {
			title, _, _ := strings.Cut(block, "\n")
			t.Errorf("EXPERIMENTS.md block %q does not match `specbench -quick -seed 1`", title)
		}
	}
	if blocks == 0 {
		t.Fatal("EXPERIMENTS.md has no text blocks")
	}
}

func TestRunCSV(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-experiment", "e5", "-quick", "-csv"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), ",") {
		t.Fatalf("CSV output has no commas:\n%s", out.String())
	}
}

func TestRunBackendsAgreeOnQuickExperiment(t *testing.T) {
	drive := func(workers string) string {
		var out bytes.Buffer
		if err := run([]string{"-experiment", "e2", "-quick", "-workers", workers}, &out); err != nil {
			t.Fatal(err)
		}
		return out.String()
	}
	base := drive("1")
	for _, workers := range []string{"2", "8"} {
		if got := drive(workers); got != base {
			t.Fatalf("e2 output diverges for -workers %s", workers)
		}
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	var out bytes.Buffer
	for _, args := range [][]string{
		{"-experiment", "e99"},
		{"-bogus"},
	} {
		if err := run(args, &out); err == nil {
			t.Fatalf("want error for %v", args)
		}
	}
}

func TestRunCampaignBuiltin(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-campaign", "stall-curve"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"stall-curve", "stallTicks", "fit "} {
		if !strings.Contains(s, want) {
			t.Fatalf("campaign report missing %q:\n%s", want, s)
		}
	}
}

func TestRunCampaignDumpAndList(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-campaign", "e13a-storm", "-dump"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), `"axes"`) {
		t.Fatalf("-dump did not emit campaign JSON:\n%s", out.String())
	}
	out.Reset()
	if err := run([]string{"-list"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"built-in campaigns:", "e13a-storm", "metrics:", "reduce statistics:", "experiments:"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("-list missing %q:\n%s", want, out.String())
		}
	}
}

func TestRunCampaignFlagValidation(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-campaign", "no-such-campaign"}, &out); err == nil {
		t.Fatal("unknown built-in accepted")
	}
	if err := run([]string{"-checkpoint", "x.journal"}, &out); err == nil {
		t.Fatal("-checkpoint without -campaign accepted")
	}
	if err := run([]string{"-dump"}, &out); err == nil {
		t.Fatal("-dump without -campaign accepted")
	}
}

func TestRunCampaignCSVStreamsRows(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-campaign", "stall-curve", "-csv"}, &out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 4 { // header + 3 sizes
		t.Fatalf("%d CSV lines, want 4:\n%s", len(lines), out.String())
	}
	if !strings.HasPrefix(lines[0], "n,trials,") {
		t.Fatalf("CSV header %q", lines[0])
	}
}

func TestRunCampaignRejectsShapingFlags(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-campaign", "stall-curve", "-quick", "-experiment", "e3"}, &out)
	if err == nil || !strings.Contains(err.Error(), "cannot be combined with -campaign") {
		t.Fatalf("err = %v, want the shaping-flag rejection", err)
	}
}

func TestByNameIsolation(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-campaign", "stall-curve", "-seed", "999", "-csv"}, &out); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := run([]string{"-campaign", "stall-curve", "-dump"}, &out); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out.String(), "999") {
		t.Fatalf("a -seed override leaked into the built-in registry:\n%s", out.String())
	}
}

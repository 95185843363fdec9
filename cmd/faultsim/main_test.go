package main

// Smoke tests: flag parsing and one tiny fault campaign.

import (
	"bytes"
	"strings"
	"testing"
)

func TestRunTinyCampaign(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-topology", "ring", "-n", "6", "-daemon", "sync", "-bursts", "2", "-corrupt", "3", "-quiet", "4"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"fault campaign", "recoveries", "re-stabilization"} {
		if !strings.Contains(s, want) {
			t.Fatalf("report missing %q:\n%s", want, s)
		}
	}
}

func TestRunServiceCampaign(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-topology", "ring", "-n", "8", "-daemon", "sync", "-bursts", "2", "-service"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"service fault campaign", "client-observed recoveries", "stall ticks", "service totals", "grants/tick"} {
		if !strings.Contains(s, want) {
			t.Fatalf("service report missing %q:\n%s", want, s)
		}
	}
	if strings.Contains(s, "FAILED") {
		t.Fatalf("service campaign reports a failed recovery:\n%s", s)
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-daemon", "nonsense"}, &out); err == nil {
		t.Fatal("want error for unknown daemon")
	}
	if err := run([]string{"-bogus"}, &out); err == nil {
		t.Fatal("want error for unknown flag")
	}
	for _, args := range [][]string{
		{"-bursts", "0"},
		{"-bursts", "-1"},
		{"-bursts", "-1", "-service"},
		{"-quiet", "-1"},
	} {
		if err := run(args, &out); err == nil {
			t.Fatalf("want error for %v", args)
		}
	}
}

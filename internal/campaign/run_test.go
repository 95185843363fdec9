package campaign

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"specstab/internal/scenario"
)

// renderRows flattens a result for comparison.
func renderRows(res *Result) string {
	var b strings.Builder
	for _, row := range res.Rows {
		fmt.Fprintf(&b, "%v|%v|%s\n", row.Labels, row.Values, row.Fingerprint)
	}
	return b.String()
}

// storm returns a fast storm campaign (service + storm metrics).
func storm() *Campaign {
	return &Campaign{
		Name: "test-storm",
		Base: scenario.Scenario{
			Seed:     3,
			Protocol: scenario.ProtocolSpec{Name: "ssme"},
			Topology: scenario.TopologySpec{Name: "ring", N: 6},
			Workload: &scenario.WorkloadSpec{Kind: "closed", ThinkMax: 3},
			Storm:    &scenario.StormSpec{Bursts: 1},
		},
		Axes: []Axis{
			{Name: "n", Field: "topology.n", Values: []any{6, 8}},
		},
		Trials:  2,
		Metrics: []string{"resumed", "stallTicks", "legitTicks", "jainClients"},
		Reduce:  []string{"worst", "mean"},
	}
}

// TestRunDeterminism is the grid-level invariance guarantee the ISSUE
// demands: the same grid produces bitwise-identical rows and fingerprints
// across engine workers 1/8 × pool workers 1/8.
func TestRunDeterminism(t *testing.T) {
	t.Parallel()
	for _, c := range []*Campaign{small(), storm()} {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			t.Parallel()
			var ref string
			for _, workers := range []int{1, 8} {
				engine := scenario.EngineSpec{Workers: workers}
				for _, pool := range []int{1, 8} {
					res, err := c.Run(RunOptions{Pool: Pool{Workers: pool}, Engine: &engine})
					if err != nil {
						t.Fatalf("engine workers=%d pool=%d: %v", workers, pool, err)
					}
					got := renderRows(res)
					if ref == "" {
						ref = got
						continue
					}
					if got != ref {
						t.Fatalf("rows differ for engine workers=%d pool=%d:\n%s\nvs reference:\n%s",
							workers, pool, got, ref)
					}
				}
			}
		})
	}
}

// TestResumeAfterKill: a journal truncated mid-grid (the kill) must resume
// into a table identical to the uninterrupted run, re-executing only the
// missing cells.
func TestResumeAfterKill(t *testing.T) {
	t.Parallel()
	c := small()
	dir := t.TempDir()
	journal := filepath.Join(dir, "grid.journal")

	full, err := c.Run(RunOptions{Pool: Pool{Workers: 2}, Checkpoint: journal})
	if err != nil {
		t.Fatal(err)
	}
	if full.Resumed != 0 {
		t.Fatalf("fresh run resumed %d cells", full.Resumed)
	}

	// Kill simulation: keep the first two journal lines plus a torn tail.
	data, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(data), "\n")
	if len(lines) < 4 {
		t.Fatalf("journal too short: %q", data)
	}
	torn := lines[0] + lines[1] + lines[2][:len(lines[2])/2]
	if err := os.WriteFile(journal, []byte(torn), 0o644); err != nil {
		t.Fatal(err)
	}

	resumed, err := c.Run(RunOptions{Pool: Pool{Workers: 2}, Checkpoint: journal})
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Resumed != 2 {
		t.Fatalf("resumed %d cells, want 2", resumed.Resumed)
	}
	if renderRows(resumed) != renderRows(full) {
		t.Fatalf("resumed table differs from the uninterrupted run:\n%s\nvs\n%s",
			renderRows(resumed), renderRows(full))
	}

	// A third run resumes everything.
	again, err := c.Run(RunOptions{Pool: Pool{Workers: 2}, Checkpoint: journal})
	if err != nil {
		t.Fatal(err)
	}
	if again.Resumed != len(full.Rows) {
		t.Fatalf("full resume replayed %d cells, want %d", again.Resumed, len(full.Rows))
	}
	if renderRows(again) != renderRows(full) {
		t.Fatal("fully resumed table differs from the uninterrupted run")
	}

	// A changed grid must not reuse stale cells: bump the seed.
	changed := small()
	changed.Base.Seed = 42
	res, err := changed.Run(RunOptions{Pool: Pool{Workers: 2}, Checkpoint: journal})
	if err != nil {
		t.Fatal(err)
	}
	if res.Resumed != 0 {
		t.Fatalf("changed grid resumed %d stale cells", res.Resumed)
	}
}

// TestStreamingCSV: the CSV stream carries the header plus one row per
// cell, in grid order, matching the table's cells.
func TestStreamingCSV(t *testing.T) {
	t.Parallel()
	c := small()
	var buf bytes.Buffer
	res, err := c.Run(RunOptions{Pool: Pool{Workers: 4}, CSV: &buf})
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 1+len(res.Rows) {
		t.Fatalf("%d CSV lines, want header + %d rows:\n%s", len(lines), len(res.Rows), buf.String())
	}
	if !strings.HasPrefix(lines[0], "n,daemon,trials,steps,moves,rounds,legit") {
		t.Fatalf("CSV header %q lacks the stable column order", lines[0])
	}
	for i, row := range res.Rows {
		if !strings.HasPrefix(lines[i+1], row.Labels[0]+","+row.Labels[1]+",") {
			t.Fatalf("CSV row %d %q does not match row labels %v", i, lines[i+1], row.Labels)
		}
	}
}

// TestJSONLStream: one JSON object per row, decodable, in grid order.
func TestJSONLStream(t *testing.T) {
	t.Parallel()
	c := small()
	var buf bytes.Buffer
	res, err := c.Run(RunOptions{Pool: Pool{Workers: 4}, JSONL: &buf})
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != len(res.Rows) {
		t.Fatalf("%d JSONL lines, want %d", len(lines), len(res.Rows))
	}
	for _, line := range lines {
		if !strings.HasPrefix(line, `{"labels":`) {
			t.Fatalf("unexpected JSONL line %q", line)
		}
	}
}

// TestFitNotes: the power-law fit lands as one note per group.
func TestFitNotes(t *testing.T) {
	t.Parallel()
	c := small()
	c.Fit = &FitSpec{Axis: "n", Metric: "steps"}
	res, err := c.Run(RunOptions{Pool: Pool{Workers: 4}})
	if err != nil {
		t.Fatal(err)
	}
	fits := 0
	for _, note := range res.Table.Notes {
		if strings.Contains(note, "steps ~ n^") {
			fits++
		}
	}
	if fits != 2 { // one per daemon group
		t.Fatalf("%d fit notes, want 2:\n%v", fits, res.Table.Notes)
	}
}

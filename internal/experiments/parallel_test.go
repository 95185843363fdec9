package experiments

import (
	"strings"
	"testing"
)

// render flattens an experiment's tables for comparison.
func render(t *testing.T, id string, cfg RunConfig) string {
	t.Helper()
	exp, err := ByID(id)
	if err != nil {
		t.Fatal(err)
	}
	tables, err := exp.Run(cfg)
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	var b strings.Builder
	for _, tb := range tables {
		b.WriteString(tb.String())
	}
	return b.String()
}

// TestWorkerCountInvariance is the grid-scheduler determinism guarantee:
// the tables must be bitwise identical whether cells run sequentially
// (Workers=1) or on a saturated pool — per-cell randomness is fixed at
// grid expansion and folds run in grid order (internal/campaign).
func TestWorkerCountInvariance(t *testing.T) {
	t.Parallel()
	// E2 (trial fan-out per daemon), E4 (daemon factories), E7 (two-stage
	// fan-out with early-exit fold), E10 (whole-scenario trials) cover
	// every fan-out shape the harness uses; E12 (paired incremental and
	// full-rescan engines per cell) has no timing column left to exempt.
	for _, id := range []string{"e2", "e4", "e7", "e10", "e12"} {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			sequential := render(t, id, RunConfig{Quick: true, Seed: 11, Workers: 1})
			parallel := render(t, id, RunConfig{Quick: true, Seed: 11, Workers: 8})
			if sequential != parallel {
				t.Errorf("%s tables differ between Workers=1 and Workers=8", id)
			}
		})
	}
}

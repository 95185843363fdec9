package scenario_test

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"specstab/internal/graph"
	"specstab/internal/scenario"
)

var updateGolden = flag.Bool("update", false, "rewrite the registry golden file")

// TestRegistryListingGolden pins scenario.List() to a golden file: adding
// or renaming a registry entry is a reviewed diff, never an accident.
func TestRegistryListingGolden(t *testing.T) {
	got := scenario.List()
	path := filepath.Join("testdata", "registry.golden")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Fatalf("registry listing drifted from %s (run with -update to accept):\n--- got ---\n%s--- want ---\n%s",
			path, got, want)
	}
}

// TestBuildTopologyRejectsBadSizes: every topology at a degenerate size
// either builds a valid graph or returns an error — never a panic.
func TestBuildTopologyRejectsBadSizes(t *testing.T) {
	t.Parallel()
	for _, name := range scenario.TopologyNames() {
		for _, n := range []int{-1, 0, 1, 2} {
			g, err := scenario.BuildTopology(scenario.TopologySpec{Name: name, N: n}, 1)
			if err != nil {
				continue
			}
			if _, err := graph.New(g.Name(), g.N(), g.Edges()); err != nil {
				t.Errorf("%s n=%d: built an invalid graph: %v", name, n, err)
			}
		}
	}
}

// TestRegistryNamesNonEmpty sanity-checks every catalogue accessor.
func TestRegistryNamesNonEmpty(t *testing.T) {
	t.Parallel()
	for name, names := range map[string][]string{
		"protocols":  scenario.ProtocolNames(),
		"topologies": scenario.TopologyNames(),
		"daemons":    scenario.DaemonNames(),
		"workloads":  scenario.WorkloadNames(),
		"init modes": scenario.InitModes(),
		"observers":  scenario.ObserverNames(),
	} {
		if len(names) == 0 {
			t.Errorf("%s registry is empty", name)
		}
		seen := map[string]bool{}
		for _, n := range names {
			if n == "" || seen[n] {
				t.Errorf("%s registry has empty or duplicate name %q", name, n)
			}
			seen[n] = true
		}
	}
}

package campaign

import (
	"bytes"
	"strings"
	"testing"

	"specstab/internal/scenario"
)

// small returns a fast protocol-run campaign used across the tests.
func small() *Campaign {
	return &Campaign{
		Name: "test-grid",
		Base: scenario.Scenario{
			Seed:     1,
			Protocol: scenario.ProtocolSpec{Name: "ssme"},
			Topology: scenario.TopologySpec{Name: "ring", N: 6},
			Init:     scenario.InitSpec{Mode: "random"},
			Stop:     scenario.StopSpec{Steps: 2048, UntilLegitimate: true},
		},
		Axes: []Axis{
			{Name: "n", Field: "topology.n", Values: []any{6, 8}},
			{Name: "daemon", Points: []Point{
				{Label: "sync", Set: map[string]any{"daemon.name": "sync"}},
				{Label: "rr", Set: map[string]any{"daemon.name": "roundrobin"}},
			}},
		},
		Trials:  2,
		Metrics: []string{"steps", "moves", "rounds", "legit"},
	}
}

// TestCellsRowMajorOrder: the last axis varies fastest and labels land in
// declaration order.
func TestCellsRowMajorOrder(t *testing.T) {
	t.Parallel()
	cells, err := small().Cells()
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, c := range cells {
		got = append(got, strings.Join(c.Labels, "/"))
	}
	want := []string{"6/sync", "6/rr", "8/sync", "8/rr"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("cell order %v, want %v", got, want)
	}
	for _, c := range cells {
		if c.Scenario.Topology.N != 6 && c.Scenario.Topology.N != 8 {
			t.Fatalf("axis patch did not land: %+v", c.Scenario.Topology)
		}
	}
}

// TestCellFingerprintIgnoresEngine: the checkpoint key must survive a
// workers change (executions are identical across them).
func TestCellFingerprintIgnoresEngine(t *testing.T) {
	t.Parallel()
	a := small()
	b := small()
	b.Base.Engine = scenario.EngineSpec{Workers: 8}
	ca, err := a.Cells()
	if err != nil {
		t.Fatal(err)
	}
	cb, err := b.Cells()
	if err != nil {
		t.Fatal(err)
	}
	for i := range ca {
		if ca[i].Fingerprint != cb[i].Fingerprint {
			t.Fatalf("cell %d fingerprint changed with the engine spec", i)
		}
	}
	a2 := small()
	a2.Base.Seed = 99
	c2, err := a2.Cells()
	if err != nil {
		t.Fatal(err)
	}
	if c2[0].Fingerprint == ca[0].Fingerprint {
		t.Fatal("fingerprint ignored a seed change")
	}
}

// TestRangeAxes: arithmetic and geometric ranges.
func TestRangeAxes(t *testing.T) {
	t.Parallel()
	ari := Axis{Field: "topology.n", Range: &Range{From: 4, To: 10, Step: 3}}
	pts, err := ari.points(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 || pts[0].Label != "4" || pts[2].Label != "10" {
		t.Fatalf("arithmetic range: %v", pts)
	}
	geo := Axis{Field: "topology.n", Range: &Range{From: 8, To: 64, Factor: 2}}
	pts, err = geo.points(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 4 || pts[3].Label != "64" {
		t.Fatalf("geometric range: %v", pts)
	}
}

// TestValidationErrors: bad grids are rejected before anything runs, with
// the offending construct named.
func TestValidationErrors(t *testing.T) {
	t.Parallel()
	cases := []struct {
		name    string
		mutate  func(c *Campaign)
		needle  string
		runtime bool // surfaces from Run (metrics/fit), not Cells
	}{
		{"both values and points", func(c *Campaign) {
			c.Axes[0].Points = []Point{{Set: map[string]any{"seed": 2}}}
		}, "exactly one of values, points, range", false},
		{"values without field", func(c *Campaign) {
			c.Axes[0].Field = ""
		}, "needs field", false},
		{"unknown field path", func(c *Campaign) {
			c.Axes[0].Field = "topology.size"
		}, "unknown field", false},
		{"path through scalar", func(c *Campaign) {
			c.Axes[0].Field = "seed.sub"
		}, "seed.sub", false},
		{"domain violation", func(c *Campaign) {
			c.Base.Protocol = scenario.ProtocolSpec{Name: "dijkstra", K: 4}
			c.Base.Daemon = scenario.DaemonSpec{}
			c.Axes = c.Axes[:1]
		}, "diverges", false},
		{"unknown metric", func(c *Campaign) {
			c.Metrics = []string{"nope"}
		}, "unknown metric", true},
		{"storm metric without storm", func(c *Campaign) {
			c.Metrics = []string{"stallTicks"}
		}, "needs a storm", true},
		{"service metric without workload", func(c *Campaign) {
			c.Metrics = []string{"grants"}
		}, "needs a workload", true},
		{"unknown reduce", func(c *Campaign) {
			c.Reduce = []string{"median-ish"}
		}, "unknown reduce", true},
		{"fit axis unknown", func(c *Campaign) {
			c.Fit = &FitSpec{Axis: "m", Metric: "steps"}
		}, "not an axis", true},
		{"fit over non-numeric axis", func(c *Campaign) {
			c.Fit = &FitSpec{Axis: "daemon", Metric: "steps"}
		}, "non-numeric", true},
		{"fit metric not requested", func(c *Campaign) {
			c.Fit = &FitSpec{Axis: "n", Metric: "guardEvals"}
		}, "not a requested metric", true},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			c := small()
			tc.mutate(c)
			var err error
			if tc.runtime {
				_, err = c.Run(RunOptions{Pool: Pool{Workers: 1}})
			} else {
				_, err = c.Cells()
			}
			if err == nil || !strings.Contains(err.Error(), tc.needle) {
				t.Fatalf("error %v, want containing %q", err, tc.needle)
			}
		})
	}
}

// TestJSONRoundTrip: Encode → Parse reproduces the grid (fingerprints
// identical), and unknown JSON fields are rejected.
func TestJSONRoundTrip(t *testing.T) {
	t.Parallel()
	c := small()
	var buf bytes.Buffer
	if err := c.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Parse(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	orig, err := c.Cells()
	if err != nil {
		t.Fatal(err)
	}
	reparsed, err := back.Cells()
	if err != nil {
		t.Fatal(err)
	}
	if len(orig) != len(reparsed) {
		t.Fatalf("grid size changed across the round trip: %d vs %d", len(orig), len(reparsed))
	}
	for i := range orig {
		if orig[i].Fingerprint != reparsed[i].Fingerprint {
			t.Fatalf("cell %d fingerprint changed across the JSON round trip", i)
		}
	}
	if _, err := Parse(strings.NewReader(`{"nome": "typo"}`)); err == nil {
		t.Fatal("unknown top-level field was accepted")
	}
}

// TestGeometricRangeRejectsNonPositiveFrom: from ≤ 0 with a factor must
// error instead of looping forever.
func TestGeometricRangeRejectsNonPositiveFrom(t *testing.T) {
	t.Parallel()
	for _, from := range []int{0, -4} {
		a := Axis{Field: "topology.n", Range: &Range{From: from, To: 16, Factor: 2}}
		if _, err := a.points(0); err == nil || !strings.Contains(err.Error(), "from ≥ 1") {
			t.Fatalf("from=%d: err = %v, want the from ≥ 1 rejection", from, err)
		}
	}
}

// TestMetricShapeCheckedPerCell: an axis that nulls out the workload of
// one cell must fail validation up front, not panic mid-grid.
func TestMetricShapeCheckedPerCell(t *testing.T) {
	t.Parallel()
	c := storm()
	c.Axes = append(c.Axes, Axis{Name: "shape", Points: []Point{
		{Label: "storm", Set: map[string]any{"storm.bursts": 1}},
		{Label: "bare", Set: map[string]any{"storm": nil, "workload": nil}},
	}})
	_, err := c.Run(RunOptions{Pool: Pool{Workers: 1}})
	if err == nil || !strings.Contains(err.Error(), "needs a storm") {
		t.Fatalf("err = %v, want the per-cell storm-metric rejection", err)
	}
}

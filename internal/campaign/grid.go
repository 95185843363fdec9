package campaign

import (
	"encoding/json"
	"fmt"

	"specstab/internal/scenario"
	"specstab/internal/sim"
)

// Cell is one resolved grid point: the patched scenario plus its axis
// labels and checkpoint fingerprint.
type Cell struct {
	// Index is the grid position (row-major, last axis fastest).
	Index int
	// Labels renders the cell's axis coordinates, one per axis.
	Labels []string
	// Scenario is the fully patched base scenario of the cell. Trial t
	// executes it with Seed + t·seedStride.
	Scenario *scenario.Scenario
	// Fingerprint keys the checkpoint journal: FNV-1a over the resolved
	// scenario JSON, the trial count and the seed stride — any change to
	// what the cell would execute changes the fingerprint, so resumed
	// grids never replay stale results.
	Fingerprint uint64
}

// AxisNames returns the column headers of the grid's axes.
func (c *Campaign) AxisNames() ([]string, error) {
	names := make([]string, len(c.Axes))
	for i := range c.Axes {
		names[i] = c.Axes[i].label(i)
	}
	return names, nil
}

// Cells expands the cartesian product of the axes over the base scenario,
// in row-major order with the last axis varying fastest. Every cell is
// validated: unknown field paths fail the strict re-decode, and protocol
// parameters are checked against the declared domains
// (scenario.CheckProtocolSpec), so a bad grid is rejected as a whole
// before any cell runs — with the offending cell named.
func (c *Campaign) Cells() ([]Cell, error) {
	axes := make([][]Point, len(c.Axes))
	for i := range c.Axes {
		pts, err := c.Axes[i].points(i)
		if err != nil {
			return nil, err
		}
		axes[i] = pts
	}
	total := 1
	for _, pts := range axes {
		total *= len(pts)
	}
	base, err := baseTree(&c.Base)
	if err != nil {
		return nil, err
	}
	cells := make([]Cell, 0, total)
	coord := make([]int, len(axes))
	for idx := 0; idx < total; idx++ {
		labels := make([]string, len(axes))
		patches := make([]map[string]any, len(axes))
		for a := range axes {
			p := axes[a][coord[a]]
			labels[a] = pointLabel(p)
			patches[a] = p.Set
		}
		sc, err := patchScenario(base, patches)
		if err != nil {
			return nil, fmt.Errorf("campaign: cell %s: %w", cellName(labels), err)
		}
		if err := scenario.CheckProtocolSpec(sc.Protocol, sc.Topology.N); err != nil {
			return nil, fmt.Errorf("campaign: cell %s: %w", cellName(labels), err)
		}
		cells = append(cells, Cell{
			Index:       idx,
			Labels:      labels,
			Scenario:    sc,
			Fingerprint: c.fingerprintCell(sc),
		})
		for a := len(axes) - 1; a >= 0; a-- {
			coord[a]++
			if coord[a] < len(axes[a]) {
				break
			}
			coord[a] = 0
		}
	}
	return cells, nil
}

// cellName renders a cell's coordinates for error messages.
func cellName(labels []string) string {
	if len(labels) == 0 {
		return "(base)"
	}
	out := labels[0]
	for _, l := range labels[1:] {
		out += "×" + l
	}
	return out
}

// fingerprintCell hashes everything that determines a cell's samples. The
// engine spec is excluded on purpose: executions are bitwise identical
// across worker counts (DESIGN.md §6), so a grid checkpointed under one
// engine spec resumes under any other.
func (c *Campaign) fingerprintCell(sc *scenario.Scenario) uint64 {
	flat := *sc
	flat.Engine = scenario.EngineSpec{}
	raw, err := json.Marshal(&flat)
	if err != nil {
		raw = []byte(err.Error())
	}
	tail := fmt.Sprintf("|trials=%d|stride=%d|metrics=%v", c.trials(), c.seedStride(), c.resolvedMetrics(sc))
	return sim.Fingerprint64(append(raw, tail...))
}

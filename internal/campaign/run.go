package campaign

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"specstab/internal/scenario"
	"specstab/internal/sim"
	"specstab/internal/stats"
	"specstab/internal/telemetry"
)

// RunOptions configures one grid execution.
type RunOptions struct {
	// Pool bounds the cell×trial fan-out; results are identical for
	// every worker count. The calling goroutine runs tasks too, and
	// the rows stream from it (forCells).
	Pool Pool
	// Engine, when non-nil, replaces every cell's engine spec — the
	// -workers override of the drivers' command lines. Executions
	// are identical either way; only the cost changes.
	Engine *scenario.EngineSpec
	// Checkpoint is the journal path ("" = no checkpointing): one JSON
	// line per completed cell, keyed by cell fingerprint. A rerun loads
	// it, replays completed cells from their recorded samples and
	// executes only the rest — resume after interruption.
	Checkpoint string
	// CSV, when set, receives the result table as streaming CSV: the
	// header immediately, each row as its cell completes (in grid order).
	CSV io.Writer
	// JSONL, when set, receives one JSON object per completed row.
	JSONL io.Writer
	// Telemetry, when set, receives live grid progress — cells
	// done/total/resumed gauges, per-cell fingerprint events, checkpoint
	// lag — published from the fold, which runs on the caller goroutine
	// in strict grid order (internal/telemetry's campaign surface). The
	// hub is campaign-level only; cell trials never share it.
	Telemetry *telemetry.Hub
}

// Row is one aggregated grid row.
type Row struct {
	// Labels are the axis coordinates.
	Labels []string `json:"labels"`
	// Values are the aggregated metric columns, metric-major.
	Values []float64 `json:"values"`
	// Fingerprint is the cell's checkpoint key (hex).
	Fingerprint string `json:"fp"`
}

// Result is one executed campaign.
type Result struct {
	// Columns is the full stable column list: axes, then "trials", then
	// one column per metric × reduce statistic.
	Columns []string
	// Rows are the aggregated cells in grid order.
	Rows []Row
	// Table renders the result with the campaign name as title and the
	// fit/doc notes attached.
	Table *stats.Table
	// Resumed counts cells replayed from the checkpoint journal.
	Resumed int
}

// journalLine is one checkpoint record.
type journalLine struct {
	Fingerprint string      `json:"fp"`
	Labels      []string    `json:"labels"`
	Samples     [][]float64 `json:"samples"`
}

// Run expands the grid, executes every pending cell × trial on the pool
// and folds the aggregated rows in grid order. Trial t of a cell executes
// the cell's scenario with seed + t·seedStride; all randomness derives
// from that seed, so the whole table is deterministic for every worker
// count (the invariance tests pin this).
func (c *Campaign) Run(opts RunOptions) (*Result, error) {
	cells, err := c.Cells()
	if err != nil {
		return nil, err
	}
	if len(cells) == 0 {
		return nil, fmt.Errorf("campaign: empty grid")
	}
	// Metric names resolve against cell 0's shape; the shape check runs
	// against every cell, since an axis can add or null out the workload
	// or storm of individual cells.
	metricNames := c.resolvedMetrics(cells[0].Scenario)
	metrics, err := checkMetrics(metricNames, cells[0].Scenario)
	if err != nil {
		return nil, err
	}
	for _, cell := range cells[1:] {
		if _, err := checkMetrics(metricNames, cell.Scenario); err != nil {
			return nil, fmt.Errorf("cell %s: %w", cellName(cell.Labels), err)
		}
	}
	reducers := make([]*reducerEntry, 0, len(c.resolvedReduce()))
	for _, name := range c.resolvedReduce() {
		r, err := reducerLookup(name)
		if err != nil {
			return nil, err
		}
		reducers = append(reducers, r)
	}
	axisNames, err := c.AxisNames()
	if err != nil {
		return nil, err
	}
	if err := c.checkFit(axisNames, metricNames, cells); err != nil {
		return nil, err
	}

	columns := append(append([]string{}, axisNames...), "trials")
	for _, m := range metrics {
		for _, r := range reducers {
			if len(reducers) == 1 {
				columns = append(columns, m.name)
			} else {
				columns = append(columns, m.name+"/"+r.name)
			}
		}
	}

	cached, journal, err := c.openJournal(opts.Checkpoint)
	if err != nil {
		return nil, err
	}
	if journal != nil {
		defer journal.Close()
	}

	trials := c.trials()
	counts := make([]int, len(cells))
	resumed := 0
	for i, cell := range cells {
		if samples, hit := cached[cell.Fingerprint]; hit && len(samples) == trials {
			resumed++
		} else {
			counts[i] = trials
		}
	}

	title := c.Name
	if title == "" {
		title = "campaign"
	}
	table := stats.NewTable(title, columns...)
	if opts.CSV != nil {
		writeCSVRow(opts.CSV, columns)
	}

	res := &Result{Columns: columns, Table: table, Resumed: resumed}
	progress := telemetry.NewProgress(opts.Telemetry, len(cells), resumed)
	// One persistent shard pool shared by every cell×trial engine of the
	// sweep: the engines' parallel phases reuse the same worker
	// goroutines instead of starting a pool per engine. Pools never
	// change executions, so resumed and fresh cells stay comparable.
	shared := sim.NewPool(0)
	defer shared.Close()
	run := func(cell, trial int) ([]float64, error) {
		vals, err := c.runTrial(cells[cell], trial, metrics, opts.Engine, shared)
		if err != nil {
			return nil, fmt.Errorf("campaign: cell %s trial %d: %w", cellName(cells[cell].Labels), trial, err)
		}
		return vals, nil
	}
	fold := func(i int, samples [][]float64) error {
		cell := cells[i]
		fresh := counts[i] > 0
		if !fresh {
			samples = cached[cell.Fingerprint]
		}
		row := Row{
			Labels:      cell.Labels,
			Fingerprint: fmt.Sprintf("%016x", cell.Fingerprint),
		}
		for mi := range metrics {
			series := make([]float64, len(samples))
			for t := range samples {
				series[t] = samples[t][mi]
			}
			for _, r := range reducers {
				row.Values = append(row.Values, r.fn(series))
			}
		}
		res.Rows = append(res.Rows, row)
		cellsRow := make([]any, 0, len(columns))
		for _, l := range cell.Labels {
			cellsRow = append(cellsRow, l)
		}
		cellsRow = append(cellsRow, trials)
		for _, v := range row.Values {
			cellsRow = append(cellsRow, v)
		}
		table.AddRow(cellsRow...)
		if opts.CSV != nil {
			writeCSVRow(opts.CSV, table.Rows[len(table.Rows)-1])
		}
		if opts.JSONL != nil {
			if err := json.NewEncoder(opts.JSONL).Encode(row); err != nil {
				return err
			}
		}
		journaled := false
		if journal != nil && fresh {
			line := journalLine{Fingerprint: row.Fingerprint, Labels: cell.Labels, Samples: samples}
			if err := json.NewEncoder(journal).Encode(line); err != nil {
				return fmt.Errorf("campaign: checkpoint write: %w", err)
			}
			journaled = true
		}
		// Resumed cells count as journaled: their samples are already in
		// the journal, so they carry no checkpoint lag.
		progress.CellDone(cell.Labels, row.Fingerprint, journaled || !fresh)
		return nil
	}
	if err := forCells(opts.Pool, counts, run, fold); err != nil {
		return nil, err
	}

	if c.Doc != "" {
		table.AddNote("%s", c.Doc)
	}
	if err := c.addFitNotes(res, axisNames, metricNames, len(reducers)); err != nil {
		return nil, err
	}
	return res, nil
}

// runTrial builds and executes one cell trial and extracts the metrics.
func (c *Campaign) runTrial(cell Cell, trial int, metrics []*metricEntry, engine *scenario.EngineSpec, pool *sim.Pool) ([]float64, error) {
	sc := *cell.Scenario
	sc.Seed += int64(trial) * c.seedStride()
	if engine != nil {
		sc.Engine = *engine
	}
	// Cells are expanded by JSON re-decode, so the runtime pool handle is
	// injected here, after the engine override — it cannot ride the spec.
	sc.Engine.Pool = pool
	r, err := scenario.Build(&sc)
	if err != nil {
		return nil, err
	}
	for _, m := range metrics {
		if m.kind == metricLegit && r.Probes().Legitimate == nil {
			return nil, fmt.Errorf("metric %q needs a legitimacy predicate, protocol %q has none", m.name, sc.Protocol.Name)
		}
	}
	if err := r.Execute(); err != nil {
		return nil, err
	}
	vals := make([]float64, len(metrics))
	for i, m := range metrics {
		vals[i] = m.extract(r)
	}
	return vals, nil
}

// openJournal loads the checkpoint journal (ignoring lines that fail to
// parse — a kill mid-write truncates at most the last line) and opens it
// for appending.
func (c *Campaign) openJournal(path string) (map[uint64][][]float64, *os.File, error) {
	if path == "" {
		return nil, nil, nil
	}
	cached := map[uint64][][]float64{}
	data, readErr := os.ReadFile(path)
	if readErr == nil {
		for _, raw := range strings.Split(string(data), "\n") {
			if strings.TrimSpace(raw) == "" {
				continue
			}
			var line journalLine
			if err := json.Unmarshal([]byte(raw), &line); err != nil {
				continue
			}
			fp, err := strconv.ParseUint(line.Fingerprint, 16, 64)
			if err != nil {
				continue
			}
			cached[fp] = line.Samples
		}
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("campaign: checkpoint: %w", err)
	}
	// A kill mid-write can leave an unterminated last line; start the
	// first append on a fresh line so the torn record never swallows it.
	if readErr == nil && len(data) > 0 && data[len(data)-1] != '\n' {
		if _, err := f.WriteString("\n"); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("campaign: checkpoint: %w", err)
		}
	}
	return cached, f, nil
}

// checkFit validates the fit spec before anything runs: the axis must
// exist with numeric labels on every cell, the metric must be requested.
func (c *Campaign) checkFit(axisNames, metricNames []string, cells []Cell) error {
	if c.Fit == nil {
		return nil
	}
	ai := indexOf(axisNames, c.Fit.Axis)
	if ai < 0 {
		return fmt.Errorf("campaign: fit axis %q is not an axis (have: %s)", c.Fit.Axis, strings.Join(axisNames, ", "))
	}
	if indexOf(metricNames, c.Fit.Metric) < 0 {
		return fmt.Errorf("campaign: fit metric %q is not a requested metric (have: %s)", c.Fit.Metric, strings.Join(metricNames, ", "))
	}
	for _, cell := range cells {
		if _, err := strconv.ParseFloat(cell.Labels[ai], 64); err != nil {
			return fmt.Errorf("campaign: fit axis %q has non-numeric label %q", c.Fit.Axis, cell.Labels[ai])
		}
	}
	return nil
}

// addFitNotes fits metric ≈ c·axis^k per group of the remaining axes and
// appends one note per group.
func (c *Campaign) addFitNotes(res *Result, axisNames, metricNames []string, nReduce int) error {
	if c.Fit == nil {
		return nil
	}
	ai := indexOf(axisNames, c.Fit.Axis)
	mi := indexOf(metricNames, c.Fit.Metric)
	col := mi * nReduce // first reduce column of the metric

	type group struct {
		key    string
		xs, ys []float64
	}
	var groups []*group
	byKey := map[string]*group{}
	for _, row := range res.Rows {
		var parts []string
		for i, l := range row.Labels {
			if i != ai {
				parts = append(parts, l)
			}
		}
		key := strings.Join(parts, "×")
		g := byKey[key]
		if g == nil {
			g = &group{key: key}
			byKey[key] = g
			groups = append(groups, g)
		}
		x, _ := strconv.ParseFloat(row.Labels[ai], 64)
		g.xs = append(g.xs, x)
		g.ys = append(g.ys, row.Values[col])
	}
	for _, g := range groups {
		fit, err := stats.FitPower(g.xs, g.ys)
		if err != nil {
			res.Table.AddNote("fit %s: %s vs %s has no usable points (%v)", g.key, c.Fit.Metric, c.Fit.Axis, err)
			continue
		}
		label := g.key
		if label == "" {
			label = c.Name
		}
		res.Table.AddNote("fit %s: %s ~ %s^%.2f (R²=%.3f)", label, c.Fit.Metric, c.Fit.Axis, fit.Exponent, fit.R2)
	}
	return nil
}

func indexOf(xs []string, want string) int {
	for i, x := range xs {
		if strings.EqualFold(x, want) {
			return i
		}
	}
	return -1
}

// writeCSVRow streams one CSV row with the table renderer's quoting.
func writeCSVRow(w io.Writer, cells []string) {
	t := stats.Table{Columns: cells}
	io.WriteString(w, t.CSV())
}

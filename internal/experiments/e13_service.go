package experiments

import (
	"fmt"

	"specstab/internal/campaign"
	"specstab/internal/core"
	"specstab/internal/daemon"
	"specstab/internal/dijkstra"
	"specstab/internal/graph"
	"specstab/internal/lexclusion"
	"specstab/internal/scenario"
	"specstab/internal/service"
	"specstab/internal/sim"
	"specstab/internal/speculation"
	"specstab/internal/stats"
)

// E13Service measures the paper's promise at the layer it was made for:
// mutual exclusion as a long-lived *service*. The grant adapter of
// internal/service turns privilege sets into client grants; fault storms
// hit the running service; and recovery is scored in client-observed time
// (grant-stream stall, latency degradation) next to protocol-observed
// time (legitimacy re-entry). Three tables:
//
//   - E13a: service curves across lock × daemon × fault intensity — pre-
//     fault throughput, stall and legitimacy recovery, unsafe exposure,
//     fairness. The Dijkstra rows show the converse trade-off: the token
//     ring never stalls (some privilege always exists) but serves
//     *unsafely* during recovery, while SSME stalls briefly and exposes
//     almost no unsafe grants.
//   - E13b: the client-observed speculation curve — worst grant-stream
//     stall after full corruption on rings of growing size, under sd vs
//     a central daemon. Stabilization is Θ(diam) vs Θ(n²)-ish in protocol
//     time; in client time both gain the privilege-rotation delay (Θ(n)
//     under sd, Θ(n²) under cd), and the fitted exponents show the
//     speculative gap surviving at the service boundary.
//   - E13c: pre/post-fault grant-latency CDFs for one representative
//     cell, the service-level shape of recovery.
//
// E13a and E13b are storm-cell grids: every cell is a declarative
// scenario.Scenario value (the same shape `locksim -scenario` and the
// campaign layer execute — examples/campaigns/e13a-storm.json is this
// exact grid as a user-editable file), and the extractors only fold
// recoveries into rows.
func E13Service(cfg RunConfig) ([]*stats.Table, error) {
	curves, err := e13CurvesTable(cfg)
	if err != nil {
		return nil, err
	}
	spec, err := e13SpeculationTable(cfg)
	if err != nil {
		return nil, err
	}
	cdf, err := e13CDFTable(cfg)
	if err != nil {
		return nil, err
	}
	return []*stats.Table{curves, spec, cdf}, nil
}

// stormCell is one declarative storm cell: a scenario plus the trial-seed
// rule its table inherited from the pre-campaign harness.
type stormCell struct {
	lockName   string
	daemonName string
	corrupt    int
	sc         scenario.Scenario
	seedOf     func(trial int) int64
}

// stormOutcome is one executed storm trial.
type stormOutcome struct {
	recs []service.Recovery
	m    service.Metrics
}

// runStormCell executes one seeded trial of a storm cell through the
// scenario layer (the engine-spec chokepoint included).
func runStormCell(cfg RunConfig, c stormCell, trial int) (stormOutcome, error) {
	sc := c.sc
	sc.Seed = c.seedOf(trial)
	r, err := scenario.Build(&sc)
	if err != nil {
		return stormOutcome{}, err
	}
	if err := r.Execute(); err != nil {
		return stormOutcome{}, err
	}
	return stormOutcome{recs: r.Recoveries(), m: r.Service().Totals()}, nil
}

// e13Locks builds the lock zoo as scenario fragments: SSME on rings and a
// grid, Dijkstra's token ring, and ℓ-exclusion with capacity ℓ. Each
// carries the storm windows its protocol derives (warm ≈ one rotation,
// horizon ≈ the unfair bound).
type e13Lock struct {
	name     string
	n        int
	protocol scenario.ProtocolSpec
	topology scenario.TopologySpec
	storm    scenario.StormSpec // bursts/corrupt filled per cell
}

func e13Locks(cfg RunConfig) ([]e13Lock, error) {
	var locks []e13Lock
	ssme := func(g *graph.Graph, topo scenario.TopologySpec) error {
		p, err := core.New(g)
		if err != nil {
			return err
		}
		locks = append(locks, e13Lock{
			name: "ssme@" + g.Name(), n: g.N(),
			protocol: scenario.ProtocolSpec{Name: "ssme"},
			topology: topo,
			storm:    scenario.StormSpec{HorizonTicks: 4 * p.ServiceWindow()},
		})
		return nil
	}
	ringN := cfg.pick(8, 16)
	if err := ssme(graph.Ring(ringN), scenario.TopologySpec{Name: "ring", N: ringN}); err != nil {
		return nil, err
	}
	gridCols := cfg.pick(3, 5)
	if err := ssme(graph.Grid(3, gridCols), scenario.TopologySpec{Name: "grid", N: 3 * gridCols}); err != nil {
		return nil, err
	}
	dj, err := dijkstra.New(ringN, ringN)
	if err != nil {
		return nil, err
	}
	locks = append(locks, e13Lock{
		name: "dijkstra@" + dj.Graph().Name(), n: ringN,
		protocol: scenario.ProtocolSpec{Name: "dijkstra"},
		topology: scenario.TopologySpec{Name: "ring", N: ringN},
		storm: scenario.StormSpec{
			WarmTicks:    4 * ringN,
			HorizonTicks: dj.UnfairHorizonMoves(),
			SettleTicks:  2 * ringN,
		},
	})
	lx, err := lexclusion.New(graph.Ring(ringN), 2)
	if err != nil {
		return nil, err
	}
	locks = append(locks, e13Lock{
		name: fmt.Sprintf("lexclusion[ℓ=2]@%s", lx.Graph().Name()), n: ringN,
		protocol: scenario.ProtocolSpec{Name: "lexclusion", L: 2},
		topology: scenario.TopologySpec{Name: "ring", N: ringN},
		storm:    scenario.StormSpec{HorizonTicks: 4 * lx.ServiceWindow()},
	})
	return locks, nil
}

// e13Daemons is the daemon spectrum the service rides through.
func e13Daemons() []struct {
	name string
	spec scenario.DaemonSpec
} {
	return []struct {
		name string
		spec scenario.DaemonSpec
	}{
		{"sd", scenario.DaemonSpec{Name: "sync"}},
		{"ud/distributed-p0.50", scenario.DaemonSpec{Name: "distributed", P: 0.5}},
	}
}

// e13CurvesTable is E13a: the storm sweep across locks, daemons and
// fault intensities.
func e13CurvesTable(cfg RunConfig) (*stats.Table, error) {
	trials := cfg.pick(2, 3)
	bursts := cfg.pick(1, 2)
	table := stats.NewTable(
		"E13a — service under live fault storms: client-observed vs protocol-observed recovery (worst over trials)",
		"lock", "daemon", "corrupt", "resumed", "stall ticks", "legit ticks", "unsafe ticks",
		"pre grants/tick", "post p95 lat", "jain clients", "safe",
	)
	locks, err := e13Locks(cfg)
	if err != nil {
		return nil, err
	}
	var cells []stormCell
	for _, lk := range locks {
		intensities := []int{lk.n}
		if !cfg.Quick {
			intensities = append(intensities, lk.n/2)
		}
		for _, dm := range e13Daemons() {
			for _, corrupt := range intensities {
				corrupt := corrupt
				storm := lk.storm
				storm.Bursts = bursts
				storm.Corrupt = corrupt
				cells = append(cells, stormCell{
					lockName: lk.name, daemonName: dm.name, corrupt: corrupt,
					sc: scenario.Scenario{
						Protocol: lk.protocol,
						Topology: lk.topology,
						Daemon:   dm.spec,
						Workload: &scenario.WorkloadSpec{Kind: "closed", ThinkMax: 3},
						Storm:    &storm,
					},
					seedOf: func(trial int) int64 {
						return cfg.seed()*1_000_003 + int64(trial)*7919 + int64(corrupt)
					},
				})
			}
		}
	}

	err = campaign.Sweep(cfg.pool(), cells,
		func(stormCell) int { return trials },
		func(c stormCell, t int) (stormOutcome, error) {
			out, err := runStormCell(cfg, c, t)
			if err != nil {
				return stormOutcome{}, fmt.Errorf("e13a %s under %s: %w", c.lockName, c.daemonName, err)
			}
			return out, nil
		},
		func(c stormCell, outs []stormOutcome) error {
			resumed, total := 0, 0
			worstStall, worstLegit := 0, 0
			var worstUnsafe int64
			var preGPT, postP95, jain float64
			legitKnown := true
			for _, o := range outs {
				for _, rec := range o.recs {
					total++
					if rec.Resumed {
						resumed++
					}
					worstStall = maxInt(worstStall, rec.StallTicks)
					if rec.LegitTicks < 0 {
						legitKnown = false
					} else {
						worstLegit = maxInt(worstLegit, rec.LegitTicks)
					}
					if rec.UnsafeTicks > worstUnsafe {
						worstUnsafe = rec.UnsafeTicks
					}
					preGPT += rec.Pre.GrantsPerTick
					if rec.Post.LatP95 > postP95 {
						postP95 = rec.Post.LatP95
					}
				}
				jain += o.m.JainClients
			}
			preGPT /= float64(total)
			jain /= float64(len(outs))
			legitStr := fmt.Sprintf("%d", worstLegit)
			if !legitKnown {
				legitStr = "—"
			}
			table.AddRow(c.lockName, c.daemonName, c.corrupt,
				fmt.Sprintf("%d/%d", resumed, total),
				worstStall, legitStr, worstUnsafe,
				fmt.Sprintf("%.4f", preGPT), postP95,
				fmt.Sprintf("%.3f", jain), ok(resumed == total))
			return nil
		})
	if err != nil {
		return nil, err
	}
	table.AddNote("stall = ticks from burst to the next grant (client-observed recovery); legit = ticks to Γ-re-entry (protocol-observed); stall/legit/unsafe are worst over recoveries, pre grants/tick is the mean")
	table.AddNote("Dijkstra never stalls — some token always exists — but serves unsafely while stabilizing; SSME stalls for roughly a rotation and exposes (almost) no unsafe tick")
	table.AddNote("closed-loop population of 2n clients, think 0–3 ticks; executions are bitwise identical for every -workers choice")
	return table, nil
}

// e13SpeculationTable is E13b: client-observed recovery curves on rings
// of growing size, sd vs central, fitted like a Definition 4 certificate.
func e13SpeculationTable(cfg RunConfig) (*stats.Table, error) {
	sizes := []int{6, 10, 14}
	if !cfg.Quick {
		sizes = []int{8, 16, 24, 32}
	}
	trials := cfg.pick(2, 3)
	table := stats.NewTable(
		"E13b — client-observed speculation curve: worst grant-stream stall after full corruption (SSME ring)",
		"n", "stall sd", "legit sd", "stall cd/random", "legit cd/random", "stall ratio cd/sd",
	)
	type dpoint struct{ stall, legit int }

	// One storm cell per (size, daemon): full corruption, warm and
	// horizon scaled by the daemon's slowdown. The central daemon slows
	// every clock advance n-fold, so its warm window still sees a
	// rotation before the burst.
	type e13bCell struct {
		n    int
		cd   bool // the row's cd half (folded with its sd predecessor)
		cell stormCell
	}
	var cells []e13bCell
	for _, n := range sizes {
		n := n
		p, err := core.New(graph.Ring(n))
		if err != nil {
			return nil, err
		}
		for _, half := range []struct {
			cd    bool
			dspec scenario.DaemonSpec
			scale int
		}{
			{false, scenario.DaemonSpec{Name: "sync"}, 1},
			{true, scenario.DaemonSpec{Name: "central"}, n},
		} {
			warm := half.scale * p.ServiceWindow()
			cells = append(cells, e13bCell{n: n, cd: half.cd, cell: stormCell{
				sc: scenario.Scenario{
					Protocol: scenario.ProtocolSpec{Name: "ssme"},
					Topology: scenario.TopologySpec{Name: "ring", N: n},
					Daemon:   half.dspec,
					Workload: &scenario.WorkloadSpec{Kind: "closed", ThinkMax: 3},
					Storm: &scenario.StormSpec{
						Bursts:       1,
						Corrupt:      n,
						WarmTicks:    warm,
						HorizonTicks: half.scale * (p.UnfairBoundMoves() + 2*p.ServiceWindow()),
						SettleTicks:  warm / 2,
					},
				},
				seedOf: func(trial int) int64 {
					return cfg.seed()*999_983 + int64(31*n+trial)
				},
			}})
		}
	}

	var strong, weak []service.ServicePoint
	var sd dpoint
	err := campaign.Sweep(cfg.pool(), cells,
		func(e13bCell) int { return trials },
		func(c e13bCell, t int) (dpoint, error) {
			out, err := runStormCell(cfg, c.cell, t)
			if err != nil {
				return dpoint{}, fmt.Errorf("e13b n=%d: %w", c.n, err)
			}
			if len(out.recs) != 1 || !out.recs[0].Resumed {
				return dpoint{}, fmt.Errorf("stall did not resolve inside the horizon at n=%d", c.n)
			}
			return dpoint{stall: out.recs[0].StallTicks, legit: out.recs[0].LegitTicks}, nil
		},
		func(c e13bCell, outs []dpoint) error {
			worst := dpoint{}
			for _, o := range outs {
				worst.stall = maxInt(worst.stall, o.stall)
				worst.legit = maxInt(worst.legit, o.legit)
			}
			if !c.cd {
				sd = worst
				return nil
			}
			cd := worst
			weak = append(weak, service.ServicePoint{Size: c.n, Stall: float64(sd.stall), Legit: float64(sd.legit)})
			strong = append(strong, service.ServicePoint{Size: c.n, Stall: float64(cd.stall), Legit: float64(cd.legit)})
			table.AddRow(c.n, sd.stall, sd.legit, cd.stall, cd.legit,
				fmt.Sprintf("%.1f", float64(cd.stall)/float64(maxInt(sd.stall, 1))))
			return nil
		})
	if err != nil {
		return nil, err
	}
	cert, err := service.SpeculationCurve(speculation.Claim{
		Protocol: "SSME/service@ring",
		Strong:   speculation.Central, StrongExponent: 2,
		Weak: speculation.Synchronous, WeakExponent: 1,
	}, strong, weak)
	if err != nil {
		return nil, err
	}
	table.AddNote("client time adds the privilege-rotation delay to stabilization: Θ(n) total under sd, Θ(n²) under cd — the speculative gap survives at the service boundary")
	table.AddNote("fitted exponents: cd stall ~ n^%.2f (R²=%.3f) vs sd stall ~ n^%.2f (R²=%.3f); separation (tol 0.5): %v",
		cert.StrongFit.Exponent, cert.StrongFit.R2, cert.WeakFit.Exponent, cert.WeakFit.R2, cert.Separated(0.5))
	return table, nil
}

// e13CDFTable is E13c: the latency distribution before and after one
// full-corruption burst, as quantiles of the grant-latency CDF. The
// burst interleaving (warm → snapshot → inject → snapshot) has no
// scenario form, so this single cell drives the service directly.
func e13CDFTable(cfg RunConfig) (*stats.Table, error) {
	n := cfg.pick(12, 24)
	p, err := core.New(graph.Ring(n))
	if err != nil {
		return nil, err
	}
	s, err := service.New(p, daemon.NewSynchronous[int](), make(sim.Config[int], n),
		cfg.seed()*424_243, service.MustClosedLoop(n, 2*n, 0, 3), service.Options{})
	if err != nil {
		return nil, err
	}
	quantiles := []float64{0.10, 0.25, 0.50, 0.75, 0.90, 0.95, 0.99}
	table := stats.NewTable(
		fmt.Sprintf("E13c — grant-latency CDF around one full burst (ssme@ring-%d under sd, ticks waited)", n),
		"window", "p10", "p25", "p50", "p75", "p90", "p95", "p99", "grants",
	)
	addRow := func(name string) error {
		cdf, okC := s.LatencyCDF(quantiles)
		if !okC {
			return fmt.Errorf("e13c: %s window served no grant", name)
		}
		m := s.Window()
		table.AddRow(name, cdf[0], cdf[1], cdf[2], cdf[3], cdf[4], cdf[5], cdf[6], m.Grants)
		return nil
	}
	warm := 2 * p.ServiceWindow()
	if _, err := s.Run(warm); err != nil {
		return nil, err
	}
	if err := addRow("pre-fault"); err != nil {
		return nil, err
	}
	s.ResetWindow()
	if err := s.InjectBurst(n); err != nil {
		return nil, err
	}
	if _, err := s.Run(warm); err != nil {
		return nil, err
	}
	if err := addRow("post-fault"); err != nil {
		return nil, err
	}
	table.AddNote("the post-fault window absorbs the stall: every request queued during recovery ages by it, shifting the whole CDF right before the rotation drains the backlog")
	return table, nil
}

package experiments

import (
	"strconv"

	"specstab/internal/campaign"
	"specstab/internal/core"
	"specstab/internal/daemon"
	"specstab/internal/sim"
	"specstab/internal/stats"
)

// E5LowerBound reproduces Theorem 4 constructively: no deterministic
// self-stabilizing mutual-exclusion protocol can beat ⌈diam/2⌉ synchronous
// steps, and SSME attains exactly that. The experiment realizes the
// indistinguishability argument as the two-island configuration of
// internal/core: for every t up to ⌊(diam−1)/2⌋ the islands keep two
// antipodal vertices simultaneously privileged at synchronous step t, so
// the measured stabilization time equals the Theorem 2 upper bound — SSME
// is optimal, closing the 40-year gap below Dijkstra's n.
//
// The grid is the topology zoo, one reduce-only measurement per graph
// (island verification and the worst-configuration replay are one
// deterministic unit with no trial structure).
func E5LowerBound(cfg RunConfig) ([]*stats.Table, error) {
	table := stats.NewTable(
		"E5 — Theorem 4: the ⌈diam/2⌉ lower bound is attained by SSME islands",
		"graph", "diam", "bound ⌈diam/2⌉", "island steps t with double privilege", "measured conv", "attained",
	)

	type cell struct{ p *core.Protocol }
	type outcome struct {
		verified int
		conv     int
	}
	var cells []cell
	for _, g := range zoo(cfg) {
		if g.N() < 2 {
			continue
		}
		p, err := core.New(g)
		if err != nil {
			return nil, err
		}
		cells = append(cells, cell{p: p})
	}

	err := campaign.Sweep(cfg.pool(), cells,
		func(cell) int { return 1 },
		func(c cell, _ int) (outcome, error) {
			p := c.p
			// Verify the double privilege really occurs at each scheduled t.
			verified := 0
			for t := 0; t <= p.MaxDoublePrivilegeStep(); t++ {
				initial, err := p.DoublePrivilegeConfig(t)
				if err != nil {
					return outcome{}, err
				}
				e, err := sim.NewEngine[int](p, daemon.NewSynchronous[int](), initial, 1)
				if err != nil {
					return outcome{}, err
				}
				for s := 0; s < t; s++ {
					if _, err := e.Step(); err != nil {
						return outcome{}, err
					}
				}
				if p.PrivilegedCount(e.Current()) >= 2 {
					verified++
				}
			}
			worst, err := p.WorstSyncConfig()
			if err != nil {
				return outcome{}, err
			}
			rep, err := p.MeasureSync(worst)
			if err != nil {
				return outcome{}, err
			}
			return outcome{verified: verified, conv: rep.ConvergenceSteps}, nil
		},
		func(c cell, outs []outcome) error {
			g := c.p.Graph()
			bound := core.SyncBound(g)
			out := outs[0]
			table.AddRow(g.Name(), g.Diameter(), bound,
				rangeLabel(out.verified, c.p.MaxDoublePrivilegeStep()),
				out.conv, ok(out.conv == bound))
			return nil
		})
	if err != nil {
		return nil, err
	}
	table.AddNote("attained=ok: measured synchronous stabilization equals the universal lower bound — optimality")
	return []*stats.Table{table}, nil
}

func rangeLabel(verified, maxT int) string {
	label := "t=0"
	if maxT > 0 {
		label = "t=0.." + strconv.Itoa(maxT)
	}
	if verified != maxT+1 {
		label += " (INCOMPLETE)"
	}
	return label
}

package experiments

import (
	"specstab/internal/campaign"
	"specstab/internal/daemon"
	"specstab/internal/sim"
	"specstab/internal/stats"
	"specstab/internal/unison"
)

// E7Unison exercises the substrate SSME stands on: the self-stabilizing
// asynchronous unison of Boulinier–Petit–Villain. Two bounds the paper
// leans on are measured: the synchronous stabilization within
// α + lcp(g) + diam(g) steps (used in Case 3 of Theorem 2's proof) and the
// Devismes–Petit move bound under unfair daemons (used in Theorem 3) —
// with both the paper's safe parameters (α = n) and the minimal parameters
// the underlying theory allows (α = hole−2, K = cyclo+1).
//
// The grid is topology × parameter family; each cell fans out its
// synchronous trials and the trials of its three ud daemons together
// (grouped by trailing index ranges), with all initial configurations
// drawn at expansion time.
func E7Unison(cfg RunConfig) ([]*stats.Table, error) {
	trials := cfg.pick(10, 40)
	udTrials := cfg.pick(2, 5)
	table := stats.NewTable(
		"E7 — asynchronous unison: measured vs proven bounds (worst over trials)",
		"graph", "params", "sync worst", "α+lcp+diam", "ud worst moves", "Devismes–Petit bound", "ok",
	)

	udDaemons := func(u *unison.Protocol) []func() sim.Daemon[int] {
		return []func() sim.Daemon[int]{
			func() sim.Daemon[int] { return daemon.NewRandomCentral[int]() },
			func() sim.Daemon[int] { return daemon.NewDistributed[int](0.4) },
			func() sim.Daemon[int] { return daemon.NewGreedyCentral[int](u, u.DisorderPotential) },
		}
	}

	type cell struct {
		u          *unison.Protocol
		gname      string
		pname      string
		syncBound  int
		udBound    int
		syncInit   []sim.Config[int]
		udInit     [][]sim.Config[int] // per ud daemon, per trial
		udFactorys []func() sim.Daemon[int]
	}
	var cells []cell
	for _, g := range zoo(cfg) {
		for _, params := range []struct {
			name string
			x    func() (p *unison.Protocol, err error)
		}{
			{"safe α=n", func() (*unison.Protocol, error) { return unison.New(g, unison.SafeParams(g)) }},
			{"minimal", func() (*unison.Protocol, error) { return unison.New(g, unison.MinimalParams(g)) }},
		} {
			u, err := params.x()
			if err != nil {
				return nil, err
			}
			rng := cfg.rng(int64(13 * g.N()))
			syncInit := make([]sim.Config[int], trials)
			for t := range syncInit {
				syncInit[t] = sim.RandomConfig[int](u, rng)
			}
			factories := udDaemons(u)
			udInit := make([][]sim.Config[int], len(factories))
			for d := range factories {
				udInit[d] = make([]sim.Config[int], udTrials)
				for t := range udInit[d] {
					udInit[d][t] = sim.RandomConfig[int](u, rng)
				}
			}
			cells = append(cells, cell{
				u: u, gname: g.Name(), pname: params.name,
				syncBound: u.SyncHorizon(), udBound: u.UnfairHorizonMoves(),
				syncInit: syncInit, udInit: udInit, udFactorys: factories,
			})
		}
	}

	err := campaign.Sweep(cfg.pool(), cells,
		func(c cell) int { return trials + len(c.udFactorys)*udTrials },
		func(c cell, t int) (runOutcome, error) {
			if t < trials {
				e := sim.MustEngine[int](c.u, daemon.NewSynchronous[int](), c.syncInit[t], 1)
				return measureRun(e, c.syncBound, c.u.Clock().K, c.u.Legitimate, c.u.Legitimate)
			}
			d := (t - trials) / udTrials
			ut := (t - trials) % udTrials
			e := sim.MustEngine[int](c.u, c.udFactorys[d](), c.udInit[d][ut], int64(ut+1))
			return measureRun(e, c.udBound, c.u.Clock().K, c.u.Legitimate, c.u.Legitimate)
		},
		func(c cell, outs []runOutcome) error {
			worstSync := 0
			for _, out := range outs[:trials] {
				if !out.legitReached {
					worstSync = c.syncBound + 1 // visible violation
					break
				}
				if out.legitSteps > worstSync {
					worstSync = out.legitSteps
				}
			}
			worstMoves := 0
			for d := range c.udFactorys {
				group := outs[trials+d*udTrials : trials+(d+1)*udTrials]
				for _, out := range group {
					if !out.legitReached {
						worstMoves = c.udBound + 1
						break
					}
					if out.legitMoves > worstMoves {
						worstMoves = out.legitMoves
					}
				}
			}
			table.AddRow(c.gname, c.pname, worstSync, c.syncBound, worstMoves, c.udBound,
				ok(worstSync <= c.syncBound && worstMoves <= c.udBound))
			return nil
		})
	if err != nil {
		return nil, err
	}
	table.AddNote("sync measurements use the legitimacy predicate Γ₁ for both safety and legitimacy: unison's spec is Γ₁ membership itself")
	return []*stats.Table{table}, nil
}

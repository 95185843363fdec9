// Package faults injects the failure model self-stabilization is built
// for: transient faults that corrupt register contents arbitrarily (but
// keep each variable inside its domain). A scenario is a sequence of fault
// bursts; after each burst the protocol must re-stabilize on its own —
// Theorem 1 promises it always does, and the experiments measure how fast.
//
// The injector is protocol-agnostic: corrupted values are drawn from the
// protocol's own per-vertex state domains via RandomState, exactly the
// paper's "arbitrary initial configuration" after each burst.
package faults

import (
	"errors"
	"fmt"
	"math/rand"

	"specstab/internal/scenario"
	"specstab/internal/sim"
)

// Burst is one fault event in a scenario.
type Burst struct {
	// AfterSteps: run this many steps before the burst fires (counted
	// from the previous burst's recovery measurement start).
	AfterSteps int
	// CorruptVertices: number of registers the burst corrupts.
	CorruptVertices int
}

// Recovery reports the re-stabilization that followed one burst.
type Recovery struct {
	// Recovered is true when the legitimacy predicate held again within
	// the horizon.
	Recovered bool
	// StepsToLegit and MovesToLegit count from the burst to re-entry.
	StepsToLegit int
	MovesToLegit int
	// SafetyViolations counts configurations violating the safety
	// predicate during recovery (the window self-stabilization cannot
	// protect; it must be 0 from re-entry on).
	SafetyViolations int
	// ViolationAfterLegit reports a safety violation after re-entry —
	// a closure failure, which must never happen.
	ViolationAfterLegit bool
}

// Scenario runs a fault-injection campaign.
type Scenario[S comparable] struct {
	// Protocol and NewDaemon build the system; a fresh daemon is used for
	// each recovery phase so stateful schedulers cannot leak across
	// bursts.
	Protocol  sim.Protocol[S]
	NewDaemon func() sim.Daemon[S]
	// Legit is the legitimacy predicate (required); Safe the safety
	// predicate (optional, defaults to Legit).
	Legit func(sim.Config[S]) bool
	Safe  func(sim.Config[S]) bool
	// HorizonSteps bounds each recovery phase.
	HorizonSteps int
	// Engine selects the shard workers of the recovery engines (zero
	// value = GOMAXPROCS). Campaigns are bitwise identical for every
	// choice.
	Engine scenario.EngineSpec
}

// Run starts from initial, lets the system stabilize once, then applies
// each burst in turn, measuring every recovery. All randomness (burst
// targets, corrupted values, daemon choices) derives from seed.
func (s Scenario[S]) Run(initial sim.Config[S], bursts []Burst, seed int64) ([]Recovery, error) {
	if s.Protocol == nil || s.NewDaemon == nil || s.Legit == nil {
		return nil, errors.New("faults: Protocol, NewDaemon and Legit are required")
	}
	safe := s.Safe
	if safe == nil {
		safe = s.Legit
	}
	rng := rand.New(sim.NewLazySource(seed))

	cfg := initial.Clone()
	// Initial stabilization (not reported: it is the E2/E3 measurement).
	var err error
	cfg, _, err = s.recover(cfg, rng)
	if err != nil {
		return nil, err
	}

	recoveries := make([]Recovery, 0, len(bursts))
	for i, b := range bursts {
		// Quiet period before the burst.
		e, err := scenario.NewEngine(s.Engine, s.Protocol, s.NewDaemon(), cfg, rng.Int63())
		if err != nil {
			return nil, err
		}
		if _, err := e.Run(b.AfterSteps, nil); err != nil {
			return nil, err
		}
		cfg = e.Snapshot()

		// The burst.
		cfg = sim.Corrupt(s.Protocol, cfg, b.CorruptVertices, rng)

		// Recovery.
		next, rec, err := s.recover(cfg, rng)
		if err != nil {
			return nil, fmt.Errorf("faults: burst %d: %w", i, err)
		}
		cfg = next
		recoveries = append(recoveries, rec)
	}
	return recoveries, nil
}

// recover runs one recovery phase and scores it.
func (s Scenario[S]) recover(cfg sim.Config[S], rng *rand.Rand) (sim.Config[S], Recovery, error) {
	safe := s.Safe
	if safe == nil {
		safe = s.Legit
	}
	e, err := scenario.NewEngine(s.Engine, s.Protocol, s.NewDaemon(), cfg, rng.Int63())
	if err != nil {
		return nil, Recovery{}, err
	}
	rec := Recovery{}
	legitAt := -1
	inspect := func(step int) {
		c := e.Current()
		if legitAt < 0 && s.Legit(c) {
			legitAt = step
			rec.Recovered = true
			rec.StepsToLegit = step
			rec.MovesToLegit = e.Moves()
		}
		if !safe(c) {
			rec.SafetyViolations++
			if legitAt >= 0 {
				rec.ViolationAfterLegit = true
			}
		}
	}
	inspect(0)
	for step := 1; step <= s.HorizonSteps; step++ {
		progressed, err := e.Step()
		if err != nil {
			return nil, rec, err
		}
		if !progressed {
			break
		}
		inspect(step)
		if legitAt >= 0 && step >= legitAt+confirmTail {
			break
		}
	}
	return e.Snapshot(), rec, nil
}

// confirmTail is how many steps past re-entry each recovery keeps
// asserting safety (closure confirmation).
const confirmTail = 32

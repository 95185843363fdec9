package main

// The simulator workload: synchronous SSME steps on a large ring through
// scenario.Build and the type-erased Engine, with the paper's Theorem 2
// checked on the live run between the timed steps.

import (
	"fmt"
	"time"

	"specstab/internal/scenario"
)

const (
	simRing    = 8192
	simWorkers = 2
	simWarmup  = 2 * time.Second
	// safeEvery is the stride, in steps, of the safety check after
	// ⌈diam/2⌉; checking every step would cost as much as the step.
	safeEvery = 64
	// stepQuantile is the quantile of the window's step times reported
	// as op_us. Every steady-state step does the same work, but other
	// guests on the host slow a share of them, which changes from second
	// to second, by up to twice: the median flips between the fast and
	// the slow mode from run to run, while the fastest tenth stays the
	// step's own cost.
	stepQuantile = 0.1
)

func simScenario(seed int64) *scenario.Scenario {
	return &scenario.Scenario{
		Name:     "bench-sim",
		Seed:     seed,
		Protocol: scenario.ProtocolSpec{Name: "ssme"},
		Topology: scenario.TopologySpec{Name: "ring", N: simRing},
		Daemon:   scenario.DaemonSpec{Name: "sync"},
		Engine:   scenario.EngineSpec{Backend: "flat", Workers: simWorkers},
		Init:     scenario.InitSpec{Mode: "random"},
	}
}

func buildSim(e *env) (*scenario.Run, error) {
	sp := e.rec.begin("scenario.Build", -1, 0)
	run, err := scenario.Build(simScenario(e.seed))
	e.rec.end(sp)
	return run, err
}

// closeEngine stops the engine's worker pool.
func closeEngine(eng scenario.Engine) {
	if c, ok := eng.(interface{ Close() }); ok {
		c.Close()
	}
}

func simSetup(e *env) (func() error, error) {
	run, err := buildSim(e)
	if err != nil {
		return nil, err
	}
	return func() error {
		closeEngine(run.Engine())
		return nil
	}, nil
}

// simStepper steps the engine and checks Theorem 2 between steps: the
// configuration is safe from step ⌈diam/2⌉ on (checked every safeEvery
// steps) and legitimate by step 2n+diam.
type simStepper struct {
	e         *env
	eng       scenario.Engine
	pr        scenario.Probes
	safeFrom  int
	legitBy   int
	legitStep int
	unsafe    bool
}

// step takes one timed step and returns its duration.
func (s *simStepper) step(rec *recorder, parent int32) (time.Duration, error) {
	sp := rec.begin("sim.Engine.Step", parent, 0)
	t0 := time.Now()
	progressed, err := s.eng.Step()
	d := time.Since(t0)
	rec.end(sp)
	if err != nil {
		return d, err
	}
	if !progressed {
		return d, fmt.Errorf("SSME reached a terminal configuration at step %d", s.eng.Steps())
	}
	n := s.eng.Steps()
	if s.legitStep < 0 && n <= s.legitBy {
		sp := rec.begin("scenario.Probes.Legitimate", parent, 0)
		if s.pr.Legitimate() {
			s.legitStep = n
		}
		rec.end(sp)
		s.e.check(s.legitStep >= 0 || n < s.legitBy, "theorem2.legitimate", "not legitimate by step 2n+diam = %d", s.legitBy)
	}
	if n >= s.safeFrom && (n-s.safeFrom)%safeEvery == 0 && !s.unsafe {
		sp := rec.begin("scenario.Probes.Safe", parent, 0)
		s.unsafe = !s.pr.Safe()
		rec.end(sp)
		s.e.check(!s.unsafe, "theorem2.safe", "spec_ME violated at step %d ≥ ⌈diam/2⌉ = %d", n, s.safeFrom)
	}
	return d, nil
}

func simRun(e *env) (*outcome, error) {
	run, err := buildSim(e)
	if err != nil {
		return nil, err
	}
	eng := run.Engine()
	defer closeEngine(eng)
	n, diam := run.Graph().N(), run.Graph().Diameter()
	s := &simStepper{e: e, eng: eng, pr: run.Probes(), safeFrom: (diam + 1) / 2, legitBy: 2*n + diam, legitStep: -1}
	if s.pr.Legitimate() {
		s.legitStep = 0
	}

	// Warm up into the legitimate regime, so every window measures the
	// steady state whatever the seed's convergence time.
	start := time.Now()
	for time.Since(start) < simWarmup || (s.legitStep < 0 && eng.Steps() < s.legitBy) {
		if _, err := s.step(nil, -1); err != nil {
			return nil, err
		}
	}

	out := &outcome{}
	for phaseNo, rec := range []*recorder{nil, e.rec} {
		if phaseNo == 1 && rec == nil {
			break
		}
		steps0, moves0, evals0 := eng.Steps(), eng.Moves(), eng.GuardEvals()
		lat := make([]float64, 0, 1<<18)
		pm := markProc()
		root := rec.begin("sim.run", -1, int64(phaseNo))
		start := time.Now()
		for time.Since(start) < e.window {
			d, err := s.step(rec, root)
			if err != nil {
				return nil, err
			}
			lat = append(lat, float64(d)/1e3)
		}
		rec.end(root)
		steps := int64(eng.Steps() - steps0)
		step := percentile(sortedCopy(lat), stepQuantile)
		win, err := closeWindow(pm, 1e6/step, step, steps, 0)
		if err != nil {
			return nil, err
		}
		if phaseNo == 0 {
			out.untraced = win
			continue
		}
		out.traced = win
		spans := e.rec.recorded()
		l := metrics{
			"sim.step_p50_us":          spanP(spans, "sim.Engine.Step", 0.5),
			"sim.step_p99_us":          spanP(spans, "sim.Engine.Step", 0.99),
			"sim.guard_evals_per_step": float64(eng.GuardEvals()-evals0) / float64(steps),
			"sim.moves_per_step":       float64(eng.Moves()-moves0) / float64(steps),
			"core.legit_step":          float64(s.legitStep),
			"scenario.build_s":         spanP(spans, "scenario.Build", 0.5) / 1e6,
		}
		procLayers(l, win)
		out.layers = l
	}
	e.check(s.legitStep >= 0, "theorem2.legitimate", "never legitimate in %d steps", eng.Steps())
	fmt.Fprintf(e.log, "bench: sim-ssme-sd: n=%d diam=%d, legitimate at step %d, %d steps in all\n", n, diam, s.legitStep, eng.Steps())
	return out, nil
}

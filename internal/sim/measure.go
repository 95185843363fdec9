package sim

// Convergence measurement: the empirical counterpart of the paper's
// conv_time. For one execution we record the last configuration index at
// which the problem's safety predicate is violated; the observed
// stabilization time of the run is that index plus one (in steps), together
// with the number of moves spent up to that point. The harness additionally
// tracks when the protocol first enters its legitimacy set (Γ₁ for unison)
// and asserts closure: once legitimate, safety must never break again —
// any counterexample would refute Theorem 1.

// RunReport is the outcome of MeasureConvergence for a single execution.
type RunReport struct {
	// StepsExecuted and MovesExecuted cover the whole measured run.
	StepsExecuted int
	MovesExecuted int
	// Terminal is true when the run stopped because no vertex was enabled.
	Terminal bool

	// LastViolationStep is the largest configuration index (0 = initial
	// configuration, i = after i steps) at which safe() was false, or −1
	// when the whole run was safe.
	LastViolationStep int
	// ConvergenceSteps = LastViolationStep + 1: the observed stabilization
	// time of this execution in steps.
	ConvergenceSteps int
	// ConvergenceMoves is the number of moves executed up to and including
	// the step that produced the last violating configuration.
	ConvergenceMoves int

	// FirstLegitStep is the first configuration index in the legitimacy
	// set (−1 when legit is nil or never reached); FirstLegitMoves counts
	// moves spent strictly before it.
	FirstLegitStep  int
	FirstLegitMoves int

	// ClosureBroken is true when a safety violation was observed at or
	// after a legitimate configuration — empirically refuting closure.
	// It must stay false for every protocol in this repository.
	ClosureBroken bool
}

// MeasureConvergence runs e for at most horizon steps and scores the
// execution against a safety predicate and an optional legitimacy
// predicate. The horizon must be chosen large enough that the protocol is
// guaranteed (or at least overwhelmingly expected) to have stabilized; the
// per-protocol helpers in internal/core and friends pick horizons from the
// paper's own upper bounds.
func MeasureConvergence[S comparable](
	e *Engine[S],
	horizon int,
	safe func(Config[S]) bool,
	legit func(Config[S]) bool,
) (RunReport, error) {
	rep := RunReport{LastViolationStep: -1, FirstLegitStep: -1}
	legitSeen := false

	inspect := func(stepIdx int) {
		c := e.Current()
		if legit != nil && !legitSeen && legit(c) {
			legitSeen = true
			rep.FirstLegitStep = stepIdx
			rep.FirstLegitMoves = e.Moves()
		}
		if !safe(c) {
			rep.LastViolationStep = stepIdx
			rep.ConvergenceMoves = e.Moves()
			if legitSeen {
				rep.ClosureBroken = true
			}
		}
	}

	inspect(0)
	for i := 1; i <= horizon; i++ {
		progressed, err := e.Step()
		if err != nil {
			return rep, err
		}
		if !progressed {
			rep.Terminal = true
			break
		}
		inspect(i)
	}
	rep.StepsExecuted = e.Steps()
	rep.MovesExecuted = e.Moves()
	rep.ConvergenceSteps = rep.LastViolationStep + 1
	return rep, nil
}

// RunToFixpoint drives e until a terminal configuration or maxSteps,
// whichever comes first, and reports whether a fixpoint was reached.
// Silent protocols (BFS tree, matching) stabilize exactly at their
// fixpoint, so their convergence measurements use this helper.
func RunToFixpoint[S comparable](e *Engine[S], maxSteps int) (fixpoint bool, err error) {
	for i := 0; i < maxSteps; i++ {
		progressed, err := e.Step()
		if err != nil {
			return false, err
		}
		if !progressed {
			return true, nil
		}
	}
	return Terminal(e.p, e.Current()), nil
}

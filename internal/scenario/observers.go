package scenario

// The stock observers. Each one is a small measurement that attaches to
// the engine's hook pipeline (sim.Engine.AddHook) at build time, so any
// combination can watch one run simultaneously — the composability a
// single observer slot never had. Observers needing typed access (trace
// rendering, rule names) are constructed inside the typed glue
// (attachObservers) and expose only erased closures.

import (
	"fmt"
	"io"
	"strings"

	"specstab/internal/sim"
	"specstab/internal/telemetry"
	"specstab/internal/trace"
)

// Observer is one attached measurement of a run.
type Observer interface {
	// Name returns the registry name the observer was built from.
	Name() string
	// Report writes the observer's findings (call after Execute).
	Report(w io.Writer)
}

// finisher is the optional end-of-run notification.
type finisher interface{ finish(r *Run) }

// observerEntry is one named observer constructor; construction happens in
// attachObservers (typed), the table is the catalogue.
type observerEntry struct {
	name string
	desc string
}

var observerRegistry = []observerEntry{
	{"convergence", "stabilization scoring: last safety violation, legitimacy entry, closure (needs a safety or legitimacy predicate)"},
	{"trace", "configuration snapshots every N steps, rendered as privilege timeline and register strip"},
	{"guards", "guard-evaluation accounting: totals, per-step rate, incremental mode"},
	{"speculation", "one convergence-curve point (steps/moves/rounds to legitimacy) for Definition 4 curve fitting"},
	{"service", "service-level metrics totals (grants, latency, fairness; needs a workload)"},
	{"steplog", "retained step records (activated vertices and rules) every N steps"},
	{"telemetry", "streaming metrics: engine counters and service series published every N steps (0 = 64) to a telemetry hub (scenario.Telemetry, or a detached one)"},
}

// ObserverNames returns the registry names in presentation order.
func ObserverNames() []string {
	out := make([]string, len(observerRegistry))
	for i, e := range observerRegistry {
		out[i] = e.name
	}
	return out
}

// attachObservers builds and attaches every observer the scenario names.
// It runs inside the typed glue so observers can capture typed values
// (recorders, rule names); the Run only ever sees the erased interface.
func attachObservers[S comparable](r *Run, sc *Scenario, p sim.Protocol[S], eng *sim.Engine[S]) error {
	for _, spec := range sc.Observers {
		var (
			o   Observer
			err error
		)
		switch spec.Name {
		case "convergence":
			o, err = newConvergence(r)
		case "trace":
			o = newTrace(r, spec, p, eng)
		case "guards":
			o = newGuards(r)
		case "speculation":
			o, err = newSpeculation(r)
		case "service":
			o, err = newServiceObserver(r)
		case "steplog":
			o = newStepLog(r, spec)
		case "telemetry":
			o = newTelemetryObserver(r, sc, eng, spec)
		default:
			err = fmt.Errorf("unknown observer %q (choose from: %s)", spec.Name, strings.Join(ObserverNames(), ", "))
		}
		if err != nil {
			return err
		}
		r.observers = append(r.observers, o)
	}
	return nil
}

// Convergence scores an execution against the protocol's safety and
// legitimacy predicates — sim.MeasureConvergence recast as a pipeline
// observer, so it can ride along with traces and service metrics instead
// of owning the run loop.
type Convergence struct {
	rep       sim.RunReport
	legitSeen bool
	r         *Run
}

func newConvergence(r *Run) (*Convergence, error) {
	if r.probes.Safe == nil && r.probes.Legitimate == nil {
		return nil, fmt.Errorf("observer %q needs a protocol with a safety or legitimacy predicate, %q has neither",
			"convergence", r.sc.Protocol.Name)
	}
	c := &Convergence{r: r}
	c.rep.LastViolationStep = -1
	c.rep.FirstLegitStep = -1
	c.inspect(0)
	r.eng.AddHook(func(info sim.StepInfo) { c.inspect(info.Step) })
	return c, nil
}

// inspect scores the current (post-step) configuration, exactly as
// sim.MeasureConvergence scores it: hooks run after the commit, so the
// engine's live configuration is configuration index stepIdx.
func (c *Convergence) inspect(stepIdx int) {
	if c.r.probes.Legitimate != nil && !c.legitSeen && c.r.probes.Legitimate() {
		c.legitSeen = true
		c.rep.FirstLegitStep = stepIdx
		c.rep.FirstLegitMoves = c.r.eng.Moves()
	}
	if c.r.probes.Safe != nil && !c.r.probes.Safe() {
		c.rep.LastViolationStep = stepIdx
		c.rep.ConvergenceMoves = c.r.eng.Moves()
		if c.legitSeen {
			c.rep.ClosureBroken = true
		}
	}
}

func (c *Convergence) finish(r *Run) {
	c.rep.StepsExecuted = r.eng.Steps()
	c.rep.MovesExecuted = r.eng.Moves()
	c.rep.ConvergenceSteps = c.rep.LastViolationStep + 1
	c.rep.Terminal = r.terminal
}

// Name implements Observer.
func (c *Convergence) Name() string { return "convergence" }

// RunReport returns the measured report (valid after Execute).
func (c *Convergence) RunReport() sim.RunReport { return c.rep }

// Report implements Observer.
func (c *Convergence) Report(w io.Writer) {
	fmt.Fprintf(w, "convergence : %d steps (last violation at step %d), Γ-entry step %d (%d moves), closure broken=%v\n",
		c.rep.ConvergenceSteps, c.rep.LastViolationStep, c.rep.FirstLegitStep, c.rep.FirstLegitMoves, c.rep.ClosureBroken)
}

// Trace records configuration snapshots on a stride and renders them as
// the privilege timeline and register strip of internal/trace.
type Trace struct {
	every    int
	n        int
	timeline func() string
	strip    func() string
}

func newTrace[S comparable](r *Run, spec ObserverSpec, p sim.Protocol[S], eng *sim.Engine[S]) *Trace {
	every := spec.Every
	if every < 1 {
		every = 1
	}
	rec := trace.NewRecorder[S](every)
	rec.Watch(eng)
	t := &Trace{every: every, n: p.N()}
	if pv, ok := any(p).(interface {
		Privileged(sim.Config[S], int) bool
	}); ok {
		t.timeline = func() string { return trace.PrivilegeTimeline[S](rec, p.N(), pv.Privileged) }
	}
	if ri, ok := any(rec).(*trace.Recorder[int]); ok {
		t.strip = func() string { return trace.IntStrip(ri, p.N()) }
	}
	return t
}

// Name implements Observer.
func (t *Trace) Name() string { return "trace" }

// Timeline renders the privilege timeline ("" when the protocol exposes
// no privilege predicate).
func (t *Trace) Timeline() string {
	if t.timeline == nil {
		return ""
	}
	return t.timeline()
}

// Strip renders the register strip ("" for non-integer state types).
func (t *Trace) Strip() string {
	if t.strip == nil {
		return ""
	}
	return t.strip()
}

// Report implements Observer.
func (t *Trace) Report(w io.Writer) {
	wrote := false
	if s := t.Timeline(); s != "" {
		fmt.Fprint(w, s)
		wrote = true
	}
	if s := t.Strip(); s != "" {
		fmt.Fprint(w, s)
		wrote = true
	}
	if !wrote {
		fmt.Fprintf(w, "trace : %d-step stride recorded (no renderer for this state type)\n", t.every)
	}
}

// Guards accounts guard evaluations over the run — the engine-locality
// cost measure of DESIGN.md §6, packaged as an observer.
type Guards struct {
	r           *Run
	startEvals  int64
	startSteps  int
	evals       int64
	steps       int
	incremental bool
}

func newGuards(r *Run) *Guards {
	return &Guards{r: r, startEvals: r.eng.GuardEvals(), startSteps: r.eng.Steps()}
}

func (g *Guards) finish(r *Run) {
	g.evals = r.eng.GuardEvals() - g.startEvals
	g.steps = r.eng.Steps() - g.startSteps
	g.incremental = r.eng.Incremental()
}

// Name implements Observer.
func (g *Guards) Name() string { return "guards" }

// Evals returns the guard evaluations spent during the run.
func (g *Guards) Evals() int64 { return g.evals }

// Report implements Observer.
func (g *Guards) Report(w io.Writer) {
	perStep := 0.0
	if g.steps > 0 {
		perStep = float64(g.evals) / float64(g.steps)
	}
	fmt.Fprintf(w, "guards      : %d evaluations over %d steps (%.1f/step, incremental=%v)\n",
		g.evals, g.steps, perStep, g.incremental)
}

// Speculation records one point of a Definition 4 convergence curve: the
// time to legitimacy entry in every time measure the engine keeps. Curves
// across sizes/daemons are assembled by running one scenario per cell and
// fitting with internal/speculation.
type Speculation struct {
	r          *Run
	entered    bool
	steps      int
	moves      int
	rounds     int
	finalSteps int
}

func newSpeculation(r *Run) (*Speculation, error) {
	if r.probes.Legitimate == nil {
		return nil, fmt.Errorf("observer %q needs a protocol with a legitimacy predicate, %q has none",
			"speculation", r.sc.Protocol.Name)
	}
	s := &Speculation{r: r}
	if r.probes.Legitimate() {
		s.entered = true
	}
	r.eng.AddHook(func(info sim.StepInfo) {
		if !s.entered && r.probes.Legitimate() {
			s.entered = true
			s.steps = r.eng.Steps()
			s.moves = r.eng.Moves()
			s.rounds = r.eng.Rounds()
		}
	})
	return s, nil
}

func (s *Speculation) finish(r *Run) { s.finalSteps = r.eng.Steps() }

// Name implements Observer.
func (s *Speculation) Name() string { return "speculation" }

// Point returns the measured legitimacy-entry times; ok is false when the
// run never entered the legitimacy set.
func (s *Speculation) Point() (steps, moves, rounds int, ok bool) {
	return s.steps, s.moves, s.rounds, s.entered
}

// Report implements Observer.
func (s *Speculation) Report(w io.Writer) {
	if !s.entered {
		fmt.Fprintf(w, "speculation : no legitimacy entry within %d steps\n", s.finalSteps)
		return
	}
	fmt.Fprintf(w, "speculation : curve point n=%d conv=%d steps / %d moves / %d rounds\n",
		s.r.g.N(), s.steps, s.moves, s.rounds)
}

// ServiceObserver reports the service-level metric totals of a workload
// run — grant throughput, latency percentiles, fairness, starvation.
type ServiceObserver struct {
	r *Run
}

func newServiceObserver(r *Run) (*ServiceObserver, error) {
	if r.svc == nil {
		return nil, fmt.Errorf("observer %q needs a workload, scenario %q declares none", "service", r.sc.Name)
	}
	return &ServiceObserver{r: r}, nil
}

// Name implements Observer.
func (s *ServiceObserver) Name() string { return "service" }

// Report implements Observer.
func (s *ServiceObserver) Report(w io.Writer) {
	fmt.Fprintln(w, "service totals")
	fmt.Fprintln(w, "==============")
	fmt.Fprint(w, s.r.svc.Totals().Render())
}

// Telemetry streams the run into an internal/telemetry hub: the engine
// collector on every scenario run, the service pump when the scenario
// declares a workload, and the storm recovery series at end-of-run.
// Collection is a pure read off the hook pipeline (DESIGN.md §12), so a
// run fingerprints identically with this observer attached or absent —
// the telemetry differential test pins exactly that.
type Telemetry struct {
	hub    *telemetry.Hub
	shared bool // hub injected via Scenario.Telemetry vs detached
	r      *Run
}

func newTelemetryObserver[S comparable](r *Run, sc *Scenario, eng *sim.Engine[S], spec ObserverSpec) *Telemetry {
	t := &Telemetry{hub: sc.Telemetry, shared: sc.Telemetry != nil, r: r}
	if t.hub == nil {
		t.hub = telemetry.New()
	}
	telemetry.WatchEngine(t.hub, eng, spec.Every)
	if r.svc != nil {
		telemetry.WatchService(t.hub, r.svc, telemetry.ServiceOptions{Every: spec.Every})
	}
	return t
}

func (t *Telemetry) finish(r *Run) {
	// Publish exact final samples regardless of stride alignment, then
	// the storm recovery table (Storm runs outside the hook strides).
	telemetry.SampleEngine(t.hub, r.eng)
	if r.svc != nil {
		telemetry.SampleService(t.hub, r.svc, true)
	}
	if r.recoveries != nil {
		telemetry.PublishRecoveries(t.hub, r.recoveries)
	}
}

// Name implements Observer.
func (t *Telemetry) Name() string { return "telemetry" }

// Hub returns the hub the observer publishes to (the scenario's shared
// hub, or the observer's own detached one).
func (t *Telemetry) Hub() *telemetry.Hub { return t.hub }

// Report implements Observer. The summary is a function of logical time
// only, so scenario reports stay byte-identical across worker counts (the CI scenarios job diffs exactly that).
func (t *Telemetry) Report(w io.Writer) {
	snap := t.hub.Gather()
	sink := "detached hub"
	if t.shared {
		sink = "shared hub"
	}
	fmt.Fprintf(w, "telemetry   : %d series, %d events at logical tick %d (%s)\n",
		len(snap.Series), snap.Events, snap.Tick, sink)
}

// StepLog retains step records on a stride — the one observer that keeps
// StepInfo beyond the hook invocation, which is exactly what
// sim.StepInfo.Clone exists for (the engine reuses the slices between
// steps; see the aliasing contract on sim.Hook).
type StepLog struct {
	every    int
	max      int
	dropped  int
	infos    []sim.StepInfo
	ruleName func(sim.Rule) string
}

// stepLogCap bounds retention so an unbounded run cannot grow the log
// without limit; the report counts what was dropped.
const stepLogCap = 512

func newStepLog(r *Run, spec ObserverSpec) *StepLog {
	every := spec.Every
	if every < 1 {
		every = 1
	}
	l := &StepLog{every: every, max: stepLogCap, ruleName: r.probes.RuleName}
	r.eng.AddHook(func(info sim.StepInfo) {
		if info.Step%l.every != 0 {
			return
		}
		if len(l.infos) >= l.max {
			l.dropped++
			return
		}
		// Clone: the engine owns and reuses info's slices between steps.
		l.infos = append(l.infos, info.Clone())
	})
	return l
}

// Name implements Observer.
func (l *StepLog) Name() string { return "steplog" }

// Steps returns the retained step records.
func (l *StepLog) Steps() []sim.StepInfo { return l.infos }

// Report implements Observer.
func (l *StepLog) Report(w io.Writer) {
	fmt.Fprintf(w, "step log (every %d steps, %d retained, %d dropped):\n", l.every, len(l.infos), l.dropped)
	for _, info := range l.infos {
		fmt.Fprintf(w, "  step %d: fired %v", info.Step, info.Activated)
		if l.ruleName != nil {
			names := make([]string, len(info.Rules))
			for i, r := range info.Rules {
				names[i] = l.ruleName(r)
			}
			fmt.Fprintf(w, " rules %v", names)
		}
		fmt.Fprintln(w)
	}
}

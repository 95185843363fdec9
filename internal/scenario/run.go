package scenario

import (
	"fmt"
	"io"

	"specstab/internal/graph"
	"specstab/internal/service"
	"specstab/internal/sim"
)

// Engine is the state-type-erased view of *sim.Engine[S] a Run exposes:
// everything a driver or observer needs that does not mention the state
// type. Typed access (predicates, state rendering, fingerprints) goes
// through Probes, whose closures the registry builders capture over the
// concrete S at build time.
type Engine interface {
	Step() (bool, error)
	Steps() int
	Moves() int
	Rounds() int
	GuardEvals() int64
	Incremental() bool
	EnabledCount() int
	Workers() int
	AddHook(sim.Hook) sim.HookID
	RemoveHook(sim.HookID) bool
}

var _ Engine = (*sim.Engine[int])(nil)

// Probes are the type-erased measurement closures over a run's live
// configuration. Nil fields mean the protocol does not expose that
// capability; observers requiring one fail at Build, not mid-run.
type Probes struct {
	// Safe reports the problem's safety predicate on the current
	// configuration (spec_ME for locks, ≤ ℓ privileges for ℓ-exclusion).
	Safe func() bool
	// Legitimate reports membership of the legitimacy set.
	Legitimate func() bool
	// Privileged reports whether vertex v may enter its critical section.
	Privileged func(v int) bool
	// State renders vertex v's current state.
	State func(v int) string
	// Fingerprint hashes the current configuration (FNV-1a over the
	// rendered states) — the cross-construction identity check of the
	// differential tests.
	Fingerprint func() uint64
	// RuleName renders a rule id of the protocol.
	RuleName func(r sim.Rule) string
}

// Run is one built scenario: the typed engine or service simulation behind
// the erased Engine view, the probes, and the attached observers. Build
// creates it; Execute drives it to its stop condition.
type Run struct {
	sc *Scenario
	g  *graph.Graph

	eng    Engine
	proto  any // the concrete protocol value (type-assert for extras)
	probes Probes

	daemonName string

	// Service-layer state (nil/zero without a workload).
	svc        *service.Sim
	wl         service.Workload
	hold       int
	capacity   int
	window     int // one service window / default protocol horizon
	recoveries []service.Recovery

	observers []Observer
	terminal  bool
	executed  bool
}

// Scenario returns the specification the run was built from.
func (r *Run) Scenario() *Scenario { return r.sc }

// Graph returns the communication graph.
func (r *Run) Graph() *graph.Graph { return r.g }

// Engine returns the type-erased engine view.
func (r *Run) Engine() Engine { return r.eng }

// Protocol returns the concrete protocol value; drivers needing
// protocol-specific extras (bounds, clocks) type-assert it.
func (r *Run) Protocol() any { return r.proto }

// Probes returns the type-erased measurement closures.
func (r *Run) Probes() Probes { return r.probes }

// DaemonName returns the driving daemon's report name.
func (r *Run) DaemonName() string { return r.daemonName }

// Service returns the service simulation, or nil for protocol-only runs.
func (r *Run) Service() *service.Sim { return r.svc }

// Workload returns the client population, or nil for protocol-only runs.
func (r *Run) Workload() service.Workload { return r.wl }

// Hold returns the resolved critical-section hold time (service runs).
func (r *Run) Hold() int { return r.hold }

// Capacity returns the resolved grant capacity (service runs).
func (r *Run) Capacity() int { return r.capacity }

// Recoveries returns the storm recoveries after Execute (nil without a
// storm).
func (r *Run) Recoveries() []service.Recovery { return r.recoveries }

// Terminal reports whether the run stopped on a terminal configuration.
func (r *Run) Terminal() bool { return r.terminal }

// Observers returns the attached observers, in specification order.
func (r *Run) Observers() []Observer { return r.observers }

// Observer returns the first attached observer with the given registry
// name, or nil.
func (r *Run) Observer(name string) Observer {
	for _, o := range r.observers {
		if o.Name() == name {
			return o
		}
	}
	return nil
}

// Horizon returns the resolved stop bound of the run: Stop.Steps (or the
// default protocol horizon) for protocol runs, Stop.Ticks (or one service
// window) for service runs.
func (r *Run) Horizon() int {
	if r.svc != nil {
		if r.sc.Stop.Ticks > 0 {
			return r.sc.Stop.Ticks
		}
		return r.window
	}
	if r.sc.Stop.Steps > 0 {
		return r.sc.Stop.Steps
	}
	return r.window
}

// Execute drives the run to its stop condition: a storm campaign when the
// scenario declares one, a tick loop for service runs, a step loop
// otherwise (stopping early on legitimacy when Stop.UntilLegitimate, and
// always on terminal configurations). Observers are notified when the run
// finishes. Execute runs at most once; re-executing a finished run is an
// error, because engines are not resettable.
func (r *Run) Execute() error {
	if r.executed {
		return fmt.Errorf("scenario: run %q already executed", r.sc.Name)
	}
	r.executed = true
	var err error
	switch {
	case r.svc != nil && r.sc.Storm != nil:
		r.recoveries, err = r.svc.Storm(r.sc.Storm.Bursts, service.StormOptions{
			WarmTicks:    r.stormWarm(),
			Corrupt:      r.sc.Storm.Corrupt,
			HorizonTicks: r.stormHorizon(),
			SettleTicks:  r.stormSettle(),
		})
	case r.svc != nil:
		var done int
		done, err = r.svc.Run(r.Horizon())
		r.terminal = err == nil && done < r.Horizon()
	default:
		err = r.stepLoop()
	}
	if err != nil {
		return err
	}
	for _, o := range r.observers {
		if f, ok := o.(finisher); ok {
			f.finish(r)
		}
	}
	return nil
}

// stormWarm/stormHorizon/stormSettle resolve the storm defaults against
// the service window, mirroring the locksim driver's historical choices.
func (r *Run) stormWarm() int {
	if r.sc.Storm.WarmTicks > 0 {
		return r.sc.Storm.WarmTicks
	}
	return r.Horizon()
}

func (r *Run) stormHorizon() int {
	if r.sc.Storm.HorizonTicks > 0 {
		return r.sc.Storm.HorizonTicks
	}
	return 8 * r.window
}

func (r *Run) stormSettle() int {
	if r.sc.Storm.SettleTicks > 0 {
		return r.sc.Storm.SettleTicks
	}
	return r.window / 2
}

// stepLoop is the protocol-run driver: at most Horizon steps, stopping on
// terminal configurations and (optionally) on legitimacy entry.
func (r *Run) stepLoop() error {
	horizon := r.Horizon()
	for i := 1; i <= horizon; i++ {
		if r.sc.Stop.UntilLegitimate && r.probes.Legitimate() {
			return nil
		}
		progressed, err := r.eng.Step()
		if err != nil {
			return err
		}
		if !progressed {
			r.terminal = true
			return nil
		}
	}
	return nil
}

// WriteReport writes the standard scenario report: a header naming the
// run, then every observer's report in specification order. Drivers with
// historical output formats (cmd/ssme, cmd/locksim's flag path) render
// their own reports from the accessors instead; this is the shared format
// of `locksim -scenario`. The engine spec is deliberately omitted —
// executions are identical across worker counts, and the report stays
// byte-comparable between them (the CI scenarios job diffs exactly that).
func (r *Run) WriteReport(w io.Writer) error {
	name := r.sc.Name
	if name == "" {
		name = r.sc.Protocol.Name
	}
	fmt.Fprintf(w, "scenario  : %s\n", name)
	fmt.Fprintf(w, "protocol  : %s on %s under %s\n", protoName(r.proto), r.g, r.daemonName)
	if r.svc != nil {
		fmt.Fprintf(w, "service   : %s, capacity %d, hold %d\n", r.wl.Name(), r.capacity, r.hold)
	}
	fmt.Fprintf(w, "execution : %d steps, %d moves, %d rounds\n", r.eng.Steps(), r.eng.Moves(), r.eng.Rounds())
	if r.terminal {
		fmt.Fprintln(w, "terminal  : the run reached a configuration with no enabled vertex")
	}
	if r.recoveries != nil {
		fmt.Fprintln(w)
		writeRecoveries(w, r.recoveries)
	}
	for _, o := range r.observers {
		fmt.Fprintln(w)
		o.Report(w)
	}
	return nil
}

// protoName renders a protocol value's report name.
func protoName(p any) string {
	if n, ok := p.(interface{ Name() string }); ok {
		return n.Name()
	}
	return fmt.Sprintf("%T", p)
}

// writeRecoveries renders a storm's client-observed recovery table.
func writeRecoveries(w io.Writer, recs []service.Recovery) {
	fmt.Fprintln(w, "fault storm — client-observed recovery")
	for i, rec := range recs {
		legit := fmt.Sprintf("%d", rec.LegitTicks)
		if rec.LegitTicks < 0 {
			legit = "—"
		}
		fmt.Fprintf(w, "  burst %d at tick %d: resumed=%v stall=%d legit=%s unsafe=%d pre-grants/tick=%.4f post-p95=%v\n",
			i+1, rec.BurstTick, rec.Resumed, rec.StallTicks, legit,
			rec.UnsafeTicks, rec.Pre.GrantsPerTick, rec.Post.LatP95)
	}
}

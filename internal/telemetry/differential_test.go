package telemetry_test

// The determinism differential: the same scenario executed with telemetry
// attached (hub + engine/service pumps + JSONL sink) and absent must
// fingerprint bitwise identically, across worker counts —
// the contract that lets -telemetry be flipped on any production run
// without changing what the run computes (DESIGN.md §12). This lives in
// an external test package so it can drive internal/scenario (which
// imports telemetry) without a cycle.

import (
	"io"
	"strings"
	"testing"

	"specstab/internal/scenario"
	"specstab/internal/telemetry"
)

// stormScenario is a full-depth run: lock service under a fault storm,
// exercising the engine pump, the service pump (cheap and heavy strides)
// and the storm recovery publisher.
func stormScenario(workers int) *scenario.Scenario {
	return &scenario.Scenario{
		Name:     "telemetry-differential",
		Seed:     7,
		Protocol: scenario.ProtocolSpec{Name: "ssme"},
		Topology: scenario.TopologySpec{Name: "ring", N: 24},
		Engine:   scenario.EngineSpec{Workers: workers},
		Workload: &scenario.WorkloadSpec{Kind: "closed", Clients: 48, ThinkMax: 3},
		Storm:    &scenario.StormSpec{Bursts: 2, Corrupt: 12},
		Stop:     scenario.StopSpec{Ticks: 600},
	}
}

// execute builds and runs sc, returning the terminal protocol and service
// fingerprints. With hub set, the telemetry observer is attached to it and
// a JSONL sink drains the event stream into io.Discard (so emission cost
// is exercised, not skipped).
func execute(t *testing.T, sc *scenario.Scenario, hub *telemetry.Hub) (uint64, uint64) {
	t.Helper()
	if hub != nil {
		hub.AddSink(telemetry.NewJSONL(io.Discard))
		sc.Telemetry = hub
		sc.Observers = append(sc.Observers, scenario.ObserverSpec{Name: "telemetry", Every: 16})
	}
	r, err := scenario.Build(sc)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Execute(); err != nil {
		t.Fatal(err)
	}
	return r.Probes().Fingerprint(), r.Service().Fingerprint()
}

func TestTelemetryDoesNotPerturbExecutions(t *testing.T) {
	baseProto, baseSvc := execute(t, stormScenario(1), nil)
	for _, workers := range []int{1, 8} {
		for _, on := range []bool{false, true} {
			var hub *telemetry.Hub
			if on {
				hub = telemetry.New()
			}
			proto, svc := execute(t, stormScenario(workers), hub)
			if proto != baseProto || svc != baseSvc {
				t.Errorf("workers=%d telemetry=%v: fingerprints (%#x, %#x) diverge from baseline (%#x, %#x)",
					workers, on, proto, svc, baseProto, baseSvc)
			}
			if on {
				snap := hub.Gather()
				if len(snap.Series) == 0 || snap.Events == 0 {
					t.Errorf("workers=%d: telemetry hub stayed empty (%d series, %d events)",
						workers, len(snap.Series), snap.Events)
				}
			}
		}
	}
}

// TestTelemetrySeriesDeterministic pins the stronger property the hub's
// design gives for free: not just that telemetry never perturbs the run,
// but that the collected series themselves are identical across worker
// counts (wall time never enters the hub).
func TestTelemetrySeriesDeterministic(t *testing.T) {
	render := func(workers int) string {
		hub := telemetry.New()
		execute(t, stormScenario(workers), hub)
		var b strings.Builder
		if err := hub.Gather().WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	base := render(1)
	for _, workers := range []int{2, 8} {
		if got := render(workers); got != base {
			t.Errorf("workers=%d: series diverge from workers=1:\n--- got ---\n%s--- want ---\n%s",
				workers, got, base)
		}
	}
}

// TestDetachedHubObserver covers the driver-less path: a scenario naming
// the telemetry observer without an injected hub runs against a detached
// hub reachable through the observer.
func TestDetachedHubObserver(t *testing.T) {
	sc := stormScenario(0)
	sc.Observers = []scenario.ObserverSpec{{Name: "telemetry"}}
	r, err := scenario.Build(sc)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Execute(); err != nil {
		t.Fatal(err)
	}
	obs, ok := r.Observer("telemetry").(*scenario.Telemetry)
	if !ok {
		t.Fatalf("observer %T, want *scenario.Telemetry", r.Observer("telemetry"))
	}
	snap := obs.Hub().Gather()
	for _, name := range []string{
		"specstab_engine_steps_total",
		"specstab_service_grants_total",
		"specstab_storm_bursts_total",
	} {
		found := false
		for _, m := range snap.Series {
			if m.Name == name {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("detached hub missing series %s", name)
		}
	}
	var rep strings.Builder
	if err := r.WriteReport(&rep); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rep.String(), "telemetry") {
		t.Errorf("run report missing the telemetry observer line:\n%s", rep.String())
	}
}

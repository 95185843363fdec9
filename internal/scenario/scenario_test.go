package scenario_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"specstab/internal/scenario"
)

// randScenario draws a random, structurally valid scenario from the
// registry names — the generator of the JSON round-trip property test.
func randScenario(rng *rand.Rand) *scenario.Scenario {
	pick := func(xs []string) string { return xs[rng.Intn(len(xs))] }
	sc := &scenario.Scenario{
		Name: "prop",
		Seed: rng.Int63n(1 << 30),
		Protocol: scenario.ProtocolSpec{
			Name: pick(scenario.ProtocolNames()),
			K:    rng.Intn(4),
			L:    rng.Intn(3),
			Root: rng.Intn(3),
		},
		Topology: scenario.TopologySpec{Name: pick(scenario.TopologyNames()), N: 4 + rng.Intn(12)},
		Daemon:   scenario.DaemonSpec{Name: pick(scenario.DaemonNames()), P: rng.Float64()},
		Engine:   scenario.EngineSpec{Backend: pick([]string{"auto", "generic", "flat"}), Workers: rng.Intn(4)},
		Init:     scenario.InitSpec{Mode: pick(scenario.InitModes()), Value: rng.Intn(5)},
		Stop:     scenario.StopSpec{Steps: rng.Intn(100), UntilLegitimate: rng.Intn(2) == 0},
	}
	if sc.Protocol.Name == "product" {
		sc.Protocol.Factors = []scenario.ProtocolSpec{{Name: "unison"}, {Name: "bfstree"}}
	}
	if rng.Intn(2) == 0 {
		sc.Workload = &scenario.WorkloadSpec{
			Kind:     pick(scenario.WorkloadNames()),
			Clients:  rng.Intn(20),
			ThinkMax: rng.Intn(4),
			Rate:     rng.Float64(),
			Hold:     rng.Intn(3),
		}
		if rng.Intn(2) == 0 {
			sc.Storm = &scenario.StormSpec{Bursts: 1 + rng.Intn(3), Corrupt: rng.Intn(8)}
		}
	}
	for _, name := range scenario.ObserverNames() {
		if rng.Intn(3) == 0 {
			sc.Observers = append(sc.Observers, scenario.ObserverSpec{Name: name, Every: rng.Intn(4)})
		}
	}
	return sc
}

// TestJSONRoundTrip is the property test: every scenario the generator
// can produce encodes to JSON and decodes back to the identical value.
func TestJSONRoundTrip(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		sc := randScenario(rng)
		var buf bytes.Buffer
		if err := sc.Encode(&buf); err != nil {
			t.Fatalf("encode %d: %v", i, err)
		}
		back, err := scenario.Parse(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("decode %d: %v\n%s", i, err, buf.String())
		}
		if !reflect.DeepEqual(sc, back) {
			t.Fatalf("round trip %d diverged:\nin  %+v\nout %+v\njson %s", i, sc, back, buf.String())
		}
	}
}

func TestParseRejectsUnknownFields(t *testing.T) {
	t.Parallel()
	_, err := scenario.Parse(strings.NewReader(`{"protocol":{"name":"ssme"},"topologee":{"name":"ring","n":8}}`))
	if err == nil || !strings.Contains(err.Error(), "topologee") {
		t.Fatalf("want unknown-field error naming the typo, got %v", err)
	}
}

// TestBackendFieldIsAcceptedNoOp: scenario files written when the engine
// had a backend switch still load and run, and the field changes nothing —
// generic, flat and absent produce the same fingerprint. Values the
// switch never accepted are still refused.
func TestBackendFieldIsAcceptedNoOp(t *testing.T) {
	t.Parallel()
	const tmpl = `{"seed": 5, "protocol": {"name": "ssme"}, "topology": {"name": "ring", "n": 12},
		"daemon": {"name": "distributed", "p": 0.4}, %s"stop": {"steps": 120}}`
	run := func(engine string) (uint64, error) {
		sc, err := scenario.Parse(strings.NewReader(fmt.Sprintf(tmpl, engine)))
		if err != nil {
			return 0, err
		}
		r, err := scenario.Build(sc)
		if err != nil {
			return 0, err
		}
		if err := r.Execute(); err != nil {
			return 0, err
		}
		return r.Probes().Fingerprint(), nil
	}
	want, err := run("")
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range []string{"generic", "flat"} {
		got, err := run(`"engine": {"backend": "` + b + `"}, `)
		if err != nil {
			t.Fatalf("backend %q: %v", b, err)
		}
		if got != want {
			t.Fatalf("backend %q: fingerprint %x, want %x (no backend)", b, got, want)
		}
	}
	if _, err := run(`"engine": {"backend": "gpu"}, `); err == nil || !strings.Contains(err.Error(), "unknown backend") {
		t.Fatalf("backend \"gpu\": got %v, want an unknown backend error", err)
	}
}

// TestBuildErrors covers the unknown-name and invalid-parameter paths of
// every registry.
func TestBuildErrors(t *testing.T) {
	t.Parallel()
	base := func() *scenario.Scenario {
		return &scenario.Scenario{
			Protocol: scenario.ProtocolSpec{Name: "ssme"},
			Topology: scenario.TopologySpec{Name: "ring", N: 8},
		}
	}
	cases := []struct {
		name string
		mut  func(*scenario.Scenario)
		want string
	}{
		{"unknown protocol", func(sc *scenario.Scenario) { sc.Protocol.Name = "paxos" }, "unknown protocol"},
		{"unknown topology", func(sc *scenario.Scenario) { sc.Topology.Name = "klein-bottle" }, "unknown topology"},
		{"unknown daemon", func(sc *scenario.Scenario) { sc.Daemon.Name = "maxwell" }, "unknown daemon"},
		{"unknown backend", func(sc *scenario.Scenario) { sc.Engine.Backend = "gpu" }, "unknown backend"},
		{"unknown init", func(sc *scenario.Scenario) { sc.Init.Mode = "entropy" }, "unknown init mode"},
		{"unsupported init", func(sc *scenario.Scenario) { sc.Init.Mode = "clean" }, "not supported"},
		{"unknown workload", func(sc *scenario.Scenario) { sc.Workload = &scenario.WorkloadSpec{Kind: "bursty"} }, "unknown workload"},
		{"open rate out of range", func(sc *scenario.Scenario) { sc.Workload = &scenario.WorkloadSpec{Kind: "open", Rate: -2} }, "rate"},
		{"unknown observer", func(sc *scenario.Scenario) {
			sc.Observers = []scenario.ObserverSpec{{Name: "flamegraph"}}
		}, "unknown observer"},
		{"storm without workload", func(sc *scenario.Scenario) { sc.Storm = &scenario.StormSpec{Bursts: 1} }, "needs a workload"},
		{"storm without bursts", func(sc *scenario.Scenario) {
			sc.Workload = &scenario.WorkloadSpec{Kind: "closed"}
			sc.Storm = &scenario.StormSpec{}
		}, "burst"},
		{"workload on silent protocol", func(sc *scenario.Scenario) {
			sc.Protocol = scenario.ProtocolSpec{Name: "bfstree"}
			sc.Workload = &scenario.WorkloadSpec{Kind: "closed"}
		}, "no privileges"},
		{"dijkstra off ring", func(sc *scenario.Scenario) {
			sc.Protocol = scenario.ProtocolSpec{Name: "dijkstra"}
			sc.Topology = scenario.TopologySpec{Name: "grid", N: 9}
		}, "rings only"},
		{"product factor count", func(sc *scenario.Scenario) {
			sc.Protocol = scenario.ProtocolSpec{Name: "product", Factors: []scenario.ProtocolSpec{{Name: "unison"}}}
		}, "exactly 2 factors"},
		{"product non-int factor", func(sc *scenario.Scenario) {
			sc.Protocol = scenario.ProtocolSpec{Name: "product",
				Factors: []scenario.ProtocolSpec{{Name: "matching"}, {Name: "unison"}}}
		}, "not an int-state"},
		{"untilLegitimate without predicate", func(sc *scenario.Scenario) {
			sc.Protocol = scenario.ProtocolSpec{Name: "matching"}
			sc.Stop.UntilLegitimate = true
		}, "legitimacy predicate"},
	}
	for _, tc := range cases {
		sc := base()
		tc.mut(sc)
		_, err := scenario.Build(sc)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want error containing %q", tc.name, err, tc.want)
		}
	}
}

// TestBuildAndExecuteEveryProtocol smoke-runs each registry protocol with
// observers attached: the catalogue must stay runnable end to end.
func TestBuildAndExecuteEveryProtocol(t *testing.T) {
	t.Parallel()
	for _, name := range scenario.ProtocolNames() {
		sc := &scenario.Scenario{
			Name:     "smoke-" + name,
			Protocol: scenario.ProtocolSpec{Name: name},
			Topology: scenario.TopologySpec{Name: "ring", N: 8},
			Init:     scenario.InitSpec{Mode: "random"},
			Stop:     scenario.StopSpec{Steps: 60},
			Observers: []scenario.ObserverSpec{
				{Name: "guards"},
				{Name: "steplog", Every: 10},
			},
		}
		if name == "product" {
			sc.Protocol.Factors = []scenario.ProtocolSpec{{Name: "unison"}, {Name: "bfstree"}}
		}
		run, err := scenario.Build(sc)
		if err != nil {
			t.Fatalf("%s: build: %v", name, err)
		}
		if err := run.Execute(); err != nil {
			t.Fatalf("%s: execute: %v", name, err)
		}
		if run.Engine().Steps() == 0 && !run.Terminal() {
			t.Fatalf("%s: no steps executed and not terminal", name)
		}
		var buf bytes.Buffer
		if err := run.WriteReport(&buf); err != nil {
			t.Fatalf("%s: report: %v", name, err)
		}
		for _, want := range []string{"scenario", "guards", "step log"} {
			if !strings.Contains(buf.String(), want) {
				t.Fatalf("%s: report missing %q:\n%s", name, want, buf.String())
			}
		}
		if err := run.Execute(); err == nil {
			t.Fatalf("%s: second Execute must fail", name)
		}
	}
}

// TestServiceScenarioWithStormAndObservers is the end-to-end shape the
// acceptance criteria name: a service run under a storm with multiple
// observers attached simultaneously.
func TestServiceScenarioWithStormAndObservers(t *testing.T) {
	t.Parallel()
	sc := &scenario.Scenario{
		Name:     "ssme-storm",
		Protocol: scenario.ProtocolSpec{Name: "ssme"},
		Topology: scenario.TopologySpec{Name: "ring", N: 8},
		Workload: &scenario.WorkloadSpec{Kind: "closed", ThinkMax: 3},
		Storm:    &scenario.StormSpec{Bursts: 2, Corrupt: 8},
		Stop:     scenario.StopSpec{Ticks: 300},
		Observers: []scenario.ObserverSpec{
			{Name: "service"},
			{Name: "convergence"},
			{Name: "guards"},
		},
	}
	run, err := scenario.Build(sc)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(run.Observers()); got != 3 {
		t.Fatalf("attached %d observers, want 3", got)
	}
	if err := run.Execute(); err != nil {
		t.Fatal(err)
	}
	if len(run.Recoveries()) != 2 {
		t.Fatalf("got %d recoveries, want 2", len(run.Recoveries()))
	}
	var buf bytes.Buffer
	if err := run.WriteReport(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"fault storm", "service totals", "convergence", "guards"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("report missing %q:\n%s", want, buf.String())
		}
	}
}

// TestUntilLegitimateStops asserts the declarative stop condition.
func TestUntilLegitimateStops(t *testing.T) {
	t.Parallel()
	sc := &scenario.Scenario{
		Protocol: scenario.ProtocolSpec{Name: "ssme"},
		Topology: scenario.TopologySpec{Name: "ring", N: 8},
		Init:     scenario.InitSpec{Mode: "random"},
		Seed:     3,
		Stop:     scenario.StopSpec{Steps: 100000, UntilLegitimate: true},
	}
	run, err := scenario.Build(sc)
	if err != nil {
		t.Fatal(err)
	}
	if err := run.Execute(); err != nil {
		t.Fatal(err)
	}
	if !run.Probes().Legitimate() {
		t.Fatal("run stopped but the configuration is not legitimate")
	}
	if run.Engine().Steps() >= 100000 {
		t.Fatal("run exhausted the horizon instead of stopping at legitimacy")
	}
}

// TestSeedZeroIsAValidSeed pins the contract that an explicit seed of 0
// is used as-is (drivers' flag defaults supply 1; the scenario layer must
// not second-guess an explicit value).
func TestSeedZeroIsAValidSeed(t *testing.T) {
	t.Parallel()
	fp := func(seed int64) uint64 {
		sc := &scenario.Scenario{
			Seed:     seed,
			Protocol: scenario.ProtocolSpec{Name: "ssme"},
			Topology: scenario.TopologySpec{Name: "ring", N: 10},
			Init:     scenario.InitSpec{Mode: "random"},
		}
		run, err := scenario.Build(sc)
		if err != nil {
			t.Fatal(err)
		}
		// Fingerprint the initial configuration: under sd the executions
		// themselves re-converge to identical configurations, so the
		// random draw is where an explicit seed must be visible.
		return run.Probes().Fingerprint()
	}
	if fp(0) == fp(1) {
		t.Fatal("seed 0 drew the same initial configuration as seed 1 — the 0→1 remap is back")
	}
}

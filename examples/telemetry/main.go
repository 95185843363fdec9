// Telemetry: run a lock-service storm soak with the streaming telemetry
// layer attached (DESIGN.md §12), serve Prometheus text on /metrics plus
// net/http/pprof, and scrape it — the same wiring `locksim -telemetry
// 127.0.0.1:9090` gives a long-running soak, where a second terminal
// follows along with
//
//	curl -s http://127.0.0.1:9090/metrics | grep specstab_service
//
// The run is bitwise identical with or without the hub attached:
// collection is a pure read in logical tick time (the differential test
// of internal/telemetry pins this across worker counts).
package main

import (
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"strings"

	"specstab/internal/scenario"
	"specstab/internal/telemetry"
)

func main() {
	// One hub collects everything; the JSONL sink streams storm-recovery
	// and progress events to stderr as they happen.
	hub := telemetry.New()
	hub.AddSink(telemetry.NewJSONL(os.Stderr))
	srv, err := telemetry.Serve(hub, "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	fmt.Printf("serving /metrics and /debug/pprof/ on %s\n\n", srv.Addr())

	// A storm soak: SSME serving a closed-loop population on a 64-ring,
	// hit by two full-corruption bursts. The telemetry observer attaches
	// the engine and service pumps to the injected hub.
	sc := &scenario.Scenario{
		Name:      "telemetry-soak",
		Seed:      2013,
		Protocol:  scenario.ProtocolSpec{Name: "ssme"},
		Topology:  scenario.TopologySpec{Name: "ring", N: 64},
		Workload:  &scenario.WorkloadSpec{Kind: "closed", Clients: 128, ThinkMax: 3},
		Storm:     &scenario.StormSpec{Bursts: 2},
		Stop:      scenario.StopSpec{Ticks: 2000},
		Observers: []scenario.ObserverSpec{{Name: "telemetry"}},
		Telemetry: hub,
	}
	r, err := scenario.Build(sc)
	if err != nil {
		log.Fatal(err)
	}
	if err := r.Execute(); err != nil {
		log.Fatal(err)
	}

	// Self-scrape: what `curl /metrics` returns mid-soak.
	resp, err := http.Get("http://" + srv.Addr() + "/metrics")
	if err != nil {
		log.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("scraped /metrics (engine and storm series):")
	for _, line := range strings.Split(string(body), "\n") {
		if strings.HasPrefix(line, "specstab_engine_") || strings.HasPrefix(line, "specstab_storm_") {
			fmt.Println("  " + line)
		}
	}
	snap := hub.Gather()
	fmt.Printf("\nhub: %d series, %d events at logical tick %d\n", len(snap.Series), snap.Events, snap.Tick)
}

// Command bench is the repository's benchmark: three workloads that drive
// the lock service, the simulator and the paper-reproduction harness
// through their public calls, timed from outside, with the program's
// outputs checked. See README.md for the workloads, the metrics and how
// to compare two sets of runs.
//
// Usage:
//
//	bench -workload lockd-closed|sim-ssme-sd|repro-quick|all [-seed 1] [-seconds 25] [-trace 0|1] [-spans file.jsonl]
//	bench compare [-bounds BENCHMARK.json] A.jsonl B.jsonl
//
// A run prints informational lines, then one record line carrying the
// workload and seed, then as its last line one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics with
// -trace 0, the per-layer metrics with -trace 1. A failed output check is
// named on standard error and makes the exit code 1.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// metricDef describes one reported metric. bound is the share of the
// baseline median by which an end-to-end metric may worsen before a
// change counts as a regression; per-layer metrics carry none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of each workload sees. Every workload
// reports every one; README.md gives each its per-workload meaning.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ready_rss_mb", "MB", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"op_us", "us", "lower", 0.25},
}

// perLayer are the metrics of single layers, printed by traced runs. A
// workload that never reaches a layer reports 0 for it.
var perLayer = []metricDef{
	{"netrun.rounds_per_s", "1/s", "higher", 0},
	{"netrun.acquire_rounds_p50", "rounds", "lower", 0},
	{"netrun.acquire_rounds_p95", "rounds", "lower", 0},
	{"netrun.acquire_p50_us", "us", "lower", 0},
	{"netrun.acquire_p99_us", "us", "lower", 0},
	{"netrun.release_p50_us", "us", "lower", 0},
	{"netrun.release_p99_us", "us", "lower", 0},
	{"netrun.grants", "count", "higher", 0},
	{"netrun.lease_expired", "count", "lower", 0},
	{"netrun.barrier_stalls", "count", "lower", 0},
	{"netrun.wire_bytes_per_round", "B", "lower", 0},
	{"netrun.journal_bytes_per_round", "B", "lower", 0},
	{"netrun.start_cluster_s", "s", "lower", 0},
	{"netrun.load_journal_s", "s", "lower", 0},
	{"netrun.replay_rounds_per_s", "1/s", "higher", 0},
	{"netrun.unsafe_post_legit", "count", "lower", 0},
	{"gen.ops_attempted", "count", "higher", 0},
	{"gen.ops_failed", "count", "lower", 0},
	{"scenario.build_s", "s", "lower", 0},
	{"sim.step_p50_us", "us", "lower", 0},
	{"sim.step_p99_us", "us", "lower", 0},
	{"sim.guard_evals_per_step", "count", "lower", 0},
	{"sim.moves_per_step", "count", "lower", 0},
	{"core.legit_step", "count", "lower", 0},
	{"experiments.e1_ms", "ms", "lower", 0},
	{"experiments.e2_ms", "ms", "lower", 0},
	{"experiments.e3_ms", "ms", "lower", 0},
	{"experiments.e4_ms", "ms", "lower", 0},
	{"experiments.e5_ms", "ms", "lower", 0},
	{"experiments.e6_ms", "ms", "lower", 0},
	{"experiments.e7_ms", "ms", "lower", 0},
	{"experiments.e8_ms", "ms", "lower", 0},
	{"experiments.e9_ms", "ms", "lower", 0},
	{"experiments.e10_ms", "ms", "lower", 0},
	{"experiments.e11_ms", "ms", "lower", 0},
	{"experiments.e13_ms", "ms", "lower", 0},
	{"proc.cpu_util", "ratio", "lower", 0},
	{"proc.steal_pct", "%", "lower", 0},
	{"proc.cpu_ms_per_op", "ms", "lower", 0},
	{"proc.peak_rss_mb", "MB", "lower", 0},
	{"proc.retained_mb", "MB", "lower", 0},
	{"go.gc_count", "count", "lower", 0},
	{"go.gc_pause_ms", "ms", "lower", 0},
	{"trace.overhead_pct", "%", "lower", 0},
}

// metrics maps metric names to measured values.
type metrics map[string]float64

// value is one printed metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run, in the shape the benchmark contract
// fixes.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// record is the line before the result: the same values, tagged with
// the run's workload, seed and mode, which is what compare reads.
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
	result
}

// render turns measured values into printed metrics for defs. Missing
// values are 0 (the layer was not reached); NaN or infinite ones, which
// JSON cannot carry, are 0 too and are reported on log.
func render(defs []metricDef, m metrics, log io.Writer) map[string]value {
	out := make(map[string]value, len(defs))
	for _, d := range defs {
		v := m[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(log, "bench: metric %s is not a finite number; printing 0\n", d.Name)
			v = 0
		}
		out[d.Name] = value{Value: v, Unit: d.Unit}
	}
	return out
}

func main() {
	os.Exit(mainCode(os.Args[1:], os.Stdout, os.Stderr))
}

// mainCode runs the command and returns its exit code: 0 on success, 1
// when an output check failed, 2 for bad usage or a run that could not
// complete.
func mainCode(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		if err := runCompare(args[1:], stdout); err != nil {
			fmt.Fprintln(stderr, "bench compare:", err)
			return 2
		}
		return 0
	}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", ")+", or all")
		seed    = fs.Int64("seed", 1, "input seed; 1 is the default, 2 the held-out seed")
		seconds = fs.Int("seconds", defaultSeconds, "length of one measured window")
		trace   = fs.Int("trace", 0, "1 adds a traced window and prints the per-layer metrics")
		spans   = fs.String("spans", "", "span file of a traced run (default .bench_build/trace/<workload>-seed<n>.jsonl)")
		workDir = fs.String("workdir", filepath.Join(".bench_build", "work"), "directory for journals and other run files")
		probe   = fs.Bool("setup-probe", false, "set the workload up, print ready and its memory, tear it down (used to measure set-up)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "bench: unexpected arguments %q\n", fs.Args())
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(stderr, "bench: -trace must be 0 or 1, got %d\n", *trace)
		return 2
	}
	if *seconds < 1 {
		fmt.Fprintf(stderr, "bench: -seconds must be at least 1, got %d\n", *seconds)
		return 2
	}
	if *name == "all" {
		return runAll(stdout, stderr, "-seed", strconv.FormatInt(*seed, 10), "-seconds", strconv.Itoa(*seconds),
			"-trace", strconv.Itoa(*trace), "-workdir", *workDir)
	}
	w, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(stderr, "bench: unknown workload %q (choose from: %s, all)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	if err := os.MkdirAll(*workDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	dir, err := os.MkdirTemp(*workDir, w.name+"-")
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	defer os.RemoveAll(dir)
	e := &env{w: w, seed: *seed, window: time.Duration(*seconds) * time.Second, dir: dir, log: stderr}

	if *probe {
		teardown, err := w.setup(e)
		if err != nil {
			fmt.Fprintln(stderr, "bench: setup:", err)
			return 2
		}
		fmt.Fprintln(stdout, "ready")
		mb, err := retainedMB()
		if err != nil {
			fmt.Fprintln(stderr, "bench: reading memory:", err)
			return 2
		}
		fmt.Fprintf(stdout, "rss_mb %.6f\n", mb)
		if err := teardown(); err != nil {
			fmt.Fprintln(stderr, "bench: teardown:", err)
			return 2
		}
		return 0
	}

	setup, err := measureSetup(w.name, *seed, *workDir)
	if err != nil {
		fmt.Fprintln(stderr, "bench: timing set-up:", err)
		return 2
	}
	if *trace == 1 {
		e.rec = newRecorder(w.spansPerSecond*(*seconds) + 4096)
	}
	path := *spans
	if path == "" {
		path = filepath.Join(".bench_build", "trace", fmt.Sprintf("%s-seed%d.jsonl", w.name, *seed))
	}
	return measure(e, setup, path, stdout)
}

// measure runs the workload e describes and prints its record and result
// lines. setup is the set-up cost already measured; spansPath receives
// the spans of a traced run. It returns the exit code.
func measure(e *env, setup setupCost, spansPath string, stdout io.Writer) int {
	out, err := e.w.run(e)
	if err != nil {
		fmt.Fprintf(e.log, "bench: %s: %v\n", e.w.name, err)
		return 2
	}
	res := result{Correct: len(e.failures) == 0}
	trace := 0
	if e.rec != nil {
		trace = 1
		layers := out.layers
		layers["trace.overhead_pct"] = overheadPct(out.untraced.e2e[e.w.headline], out.traced.e2e[e.w.headline], higherIsBetter(e.w.headline))
		res.Attempted, res.Failed = out.traced.attempted, out.traced.failed
		res.Metrics = render(perLayer, layers, e.log)
		if err := writeSpans(spansPath, e.rec); err != nil {
			fmt.Fprintln(e.log, "bench: writing spans:", err)
			return 2
		}
		printSummary(e.log, e.rec.recorded())
		fmt.Fprintf(e.log, "bench: spans written to %s\n", spansPath)
		if d := e.rec.dropped.Load(); d > 0 {
			fmt.Fprintf(e.log, "bench: the span buffer was full; %d spans were not recorded\n", d)
		}
	} else {
		m := out.untraced.e2e
		m["setup_s"], m["ready_rss_mb"] = setup.secs, setup.mb
		res.Attempted, res.Failed = out.untraced.attempted, out.untraced.failed
		res.Metrics = render(endToEnd, m, e.log)
	}
	for _, f := range e.failures {
		fmt.Fprintf(e.log, "bench: check failed: %s\n", f)
	}
	if res.Attempted < 1 {
		fmt.Fprintln(e.log, "bench: no operation was attempted")
		return 2
	}
	rec, err := json.Marshal(record{Workload: e.w.name, Seed: e.seed, Trace: trace, result: res})
	if err != nil {
		fmt.Fprintln(e.log, "bench:", err)
		return 2
	}
	last, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(e.log, "bench:", err)
		return 2
	}
	fmt.Fprintf(stdout, "%s\n%s\n", rec, last)
	if !res.Correct {
		return 1
	}
	return 0
}

// defaultSeconds is the measured window when -seconds is not given.
const defaultSeconds = 25

func higherIsBetter(name string) bool {
	for _, d := range endToEnd {
		if d.Name == name {
			return d.Better == "higher"
		}
	}
	return false
}

// Set-up is timed at least minProbes times per run and, while the
// probes have taken less than probeBudget in all, up to maxProbes times:
// the lock ring sets up in a few milliseconds, where one probe says
// little, the simulator and the reproduction in about a second.
const (
	minProbes   = 5
	maxProbes   = 51
	probeBudget = time.Second
)

// setupCost is what setting a workload up costs: seconds from exec to
// ready, and the resident set once ready, after a full collection, in MB.
type setupCost struct{ secs, mb float64 }

// measureSetup measures the workload's set-up from outside: it starts
// this binary in probe mode repeatedly and times each probe from the exec
// until the child prints "ready", so process start, package
// initialisation and the workload's own set-up all count; each probe
// then reports its memory. It returns the medians.
func measureSetup(name string, seed int64, workDir string) (setupCost, error) {
	exe, err := os.Executable()
	if err != nil {
		return setupCost{}, err
	}
	var secs, mbs []float64
	began := time.Now()
	for len(secs) < minProbes || (len(secs) < maxProbes && time.Since(began) < probeBudget) {
		c, err := probeSetup(exe, "-setup-probe", "-workload", name, "-seed", strconv.FormatInt(seed, 10), "-workdir", workDir)
		if err != nil {
			return setupCost{}, err
		}
		secs, mbs = append(secs, c.secs), append(mbs, c.mb)
	}
	return setupCost{secs: median(secs), mb: median(mbs)}, nil
}

// probeSetup runs one probe. It waits for the probe to tear down and
// exit.
func probeSetup(exe string, args ...string) (setupCost, error) {
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	pipe, err := cmd.StdoutPipe()
	if err != nil {
		return setupCost{}, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return setupCost{}, fmt.Errorf("setup probe: %w", err)
	}
	r := bufio.NewReader(pipe)
	line, readErr := r.ReadString('\n')
	ready := time.Since(start)
	// Read the memory line and whatever else the probe prints, so it
	// never blocks on a full pipe, then wait for it to exit.
	rest, _ := io.ReadAll(r)
	if err := cmd.Wait(); err != nil {
		return setupCost{}, fmt.Errorf("setup probe: %w", err)
	}
	if readErr != nil || line != "ready\n" {
		return setupCost{}, fmt.Errorf("setup probe printed %q (%v)", line, readErr)
	}
	var mb float64
	if _, err := fmt.Sscanf(string(rest), "rss_mb %g\n", &mb); err != nil {
		return setupCost{}, fmt.Errorf("setup probe printed %q after ready: %w", rest, err)
	}
	return setupCost{secs: ready.Seconds(), mb: mb}, nil
}

// runAll runs every workload in its own process, one after another, so
// set-up time and peak memory stay per workload, and passes their output
// through. args are the flags every run shares.
func runAll(stdout, stderr io.Writer, args ...string) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	code := 0
	for _, w := range workloads {
		cmd := exec.Command(exe, append([]string{"-workload", w.name}, args...)...)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		fmt.Fprintf(stderr, "bench: workload %s\n", w.name)
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "bench: workload %s: %v\n", w.name, err)
			c := 2
			var ee *exec.ExitError
			if errors.As(err, &ee) && ee.ExitCode() > 0 {
				c = ee.ExitCode()
			}
			code = max(code, c)
		}
	}
	return code
}

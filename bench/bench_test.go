package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestMain lets the test binary stand in for the benchmark binary: a run
// re-executes itself to time set-up, and under BENCH_AS_MAIN=1 the child
// behaves as the command.
func TestMain(m *testing.M) {
	if os.Getenv("BENCH_AS_MAIN") == "1" {
		os.Exit(mainCode(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

func TestPercentileNearestRank(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	for _, tc := range []struct {
		n    int
		p    float64
		want float64
	}{
		{100, 0.5, 50},
		{100, 0.1, 10},
		{100, 0.99, 99},
		{999, 0.1, 100},
		{16, 0.5, 8},
		{16, 0, 1}, // the smallest
		{1, 0.99, 1},
	} {
		if got := percentile(seq(tc.n), tc.p); got != tc.want {
			t.Errorf("percentile(1..%d, %g) = %g, want %g", tc.n, tc.p, got, tc.want)
		}
	}
	if v := percentile(nil, 0.5); !math.IsNaN(v) {
		t.Errorf("percentile of no samples = %g", v)
	}
}

func TestMedianRate(t *testing.T) {
	var done []time.Duration
	for s, n := range []int{10, 30, 20, 40, 5} {
		for i := 0; i < n; i++ {
			done = append(done, time.Duration(s)*time.Second+time.Duration(i)*time.Millisecond)
		}
	}
	done = append(done, 5*time.Second) // past the window: not counted
	if got := medianRate(done, 5*time.Second); got != 20 {
		t.Errorf("medianRate = %g, want 20", got)
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4),
// the values an external check computes.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{5, 1}, [3]float64{0, 3, 6}},
		{[]float64{10.5, 9.75, 11.25, 10.0, 10.25}, [3]float64{9.875, 10.25, 10.875}},
	} {
		q1, med, q3 := quartiles(tc.xs)
		if got := [3]float64{q1, med, q3}; got != tc.want {
			t.Errorf("quartiles(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
	if got, want := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}), (8.25-2.75)/5.5; got != want {
		t.Errorf("spread = %g, want %g", got, want)
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	spans := []span{
		{name: "parent", parent: -1, start: 0, end: 100},
		{name: "a", parent: 0, start: 10, end: 40},
		{name: "b", parent: 0, start: 30, end: 60},  // overlaps a: [10, 60] counted once
		{name: "c", parent: 0, start: 90, end: 120}, // clipped to the parent's end
		{name: "grandchild", parent: 1, start: 15, end: 25},
		{name: "other-root", parent: -1, start: 0, end: 7},
	}
	want := []int64{100 - 50 - 10, 30 - 10, 30, 30, 10, 7}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].name, got[i], want[i])
		}
	}
	sum := summarize(spans)
	if len(sum) != 6 || sum[0].Name != "parent" || sum[0].SelfMs != 40e-6 {
		t.Errorf("summary = %+v", sum)
	}
}

func TestRecorderDropsWhenFull(t *testing.T) {
	r := newRecorder(2)
	a := r.begin("a", -1, 1)
	b := r.begin("b", a, 1)
	c := r.begin("c", a, 1)
	r.end(c)
	r.end(b)
	r.end(a)
	if c != -1 || r.dropped.Load() != 1 || len(r.recorded()) != 2 {
		t.Errorf("handles %d %d %d, dropped %d, recorded %d", a, b, c, r.dropped.Load(), len(r.recorded()))
	}
	var none *recorder
	if none.begin("x", -1, 0) != -1 || none.recorded() != nil {
		t.Error("a nil recorder recorded a span")
	}
	none.end(0)
}

func TestJudgeVerdicts(t *testing.T) {
	base := []float64{100, 101, 99, 100.5, 99.5, 100, 100.2, 99.8, 100.1, 99.9}
	scale := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, x := range base {
			out[i] = x * f
		}
		return out
	}
	wide := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	for _, tc := range []struct {
		name   string
		a, b   []float64
		higher bool
		want   string
	}{
		{"same", base, scale(1.01), false, ok},
		{"faster", base, scale(0.8), false, improved},
		{"slower", base, scale(1.2), false, regressed},
		{"more throughput", base, scale(1.2), true, improved},
		{"less throughput", base, scale(0.8), true, regressed},
		{"noisy", base, wide, false, unresolved},
		{"noisy but always better", wide, scale(0.5), false, improved},
		{"faster in too few pairs", base[:5], scale(0.8)[:5], false, ok},
	} {
		if got := judge(tc.a, tc.b, 0.1, tc.higher); got != tc.want {
			t.Errorf("%s: judge = %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestCompareReadsRecords(t *testing.T) {
	line := func(w string, trace int, ops float64, failed int64) string {
		b, err := json.Marshal(record{Workload: w, Trace: trace, result: result{
			Correct: true, Attempted: 100, Failed: failed,
			Metrics: map[string]value{"ops_per_s": {Value: ops, Unit: "1/s"}},
		}})
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	var a, b strings.Builder
	for i := 0; i < 5; i++ {
		a.WriteString("bench: some log line\n" + line("w", 0, 100+float64(i)/10, 0) + "\n{\"correct\":true}\n")
		b.WriteString(line("w", 0, 80+float64(i)/10, 1) + "\n" + line("w", 1, 1, 0) + "\n")
	}
	ra, err := readRuns(strings.NewReader(a.String()))
	if err != nil {
		t.Fatal(err)
	}
	rb, err := readRuns(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if n := len(rb.values["w"]["ops_per_s"]); n != 5 {
		t.Fatalf("read %d untraced runs of B, want 5", n)
	}
	var out bytes.Buffer
	defs := []metricDef{{"ops_per_s", "1/s", "higher", 0.05}}
	if err := writeComparison(&out, defs, ra, rb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"regressed", "0/500 (0.0000)", "5/500 (0.0100)"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("comparison lacks %q:\n%s", want, out.String())
		}
	}
}

// TestFailedCheckExitsNonZero runs a workload whose output check fails:
// the run still prints its result, with correct false, names the check
// and exits 1.
func TestFailedCheckExitsNonZero(t *testing.T) {
	w := workload{
		name:     "always-wrong",
		headline: "ops_per_s",
		run: func(e *env) (*outcome, error) {
			e.check(false, "test.always", "the output is wrong by construction")
			return &outcome{untraced: window{e2e: metrics{"ops_per_s": 3}, attempted: 3}}, nil
		},
	}
	var stdout, stderr bytes.Buffer
	e := &env{w: w, seed: 1, window: time.Second, dir: t.TempDir(), log: &stderr}
	if code := measure(e, setupCost{secs: 0.5, mb: 10}, "", &stdout); code != 1 {
		t.Fatalf("exit code %d, want 1", code)
	}
	if !strings.Contains(stderr.String(), "check failed: test.always") {
		t.Errorf("stderr does not name the check:\n%s", stderr.String())
	}
	res := lastResult(t, stdout.String())
	if res.Correct || res.Attempted != 3 {
		t.Errorf("result %+v", res)
	}
}

// TestBenchmarkFileMatches holds BENCHMARK.json and this package's
// definitions together.
func TestBenchmarkFileMatches(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the code %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.name || bf.Workloads[i].Why != w.why {
			t.Errorf("workload %d: file %+v, code %q %q", i, bf.Workloads[i], w.name, w.why)
		}
	}
	same := func(kind string, file, code []metricDef) {
		if len(file) != len(code) {
			t.Errorf("%s: file has %d metrics, code %d", kind, len(file), len(code))
			return
		}
		for i := range code {
			if file[i] != code[i] {
				t.Errorf("%s %d: file %+v, code %+v", kind, i, file[i], code[i])
			}
		}
	}
	same("end_to_end", bf.EndToEnd, endToEnd)
	same("per_layer", bf.PerLayer, perLayer)
	setup := 0.0
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", d.Name, d.Bound)
		}
		if d.Name == "setup_s" {
			setup = d.Bound
		}
	}
	for _, d := range endToEnd {
		if d.Bound > setup {
			t.Errorf("%s has a larger bound than setup_s", d.Name)
		}
	}
	if bf.RunSeconds < 1 || bf.RunSeconds > 60 || len(bf.Paths) != 1 || bf.Paths[0] != "bench" {
		t.Errorf("run_seconds %d, paths %v", bf.RunSeconds, bf.Paths)
	}
}

// TestSmoke runs every workload for one-second windows, untraced and
// traced, through the command's entry point. Lease failures are not
// asserted away: a slow host may lose grants, which is a measurement,
// not a harness bug.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload; skipped with -short")
	}
	t.Setenv("BENCH_AS_MAIN", "1")
	dir := t.TempDir()
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			spans := filepath.Join(dir, w.name+".jsonl")
			var stdout, stderr bytes.Buffer
			code := mainCode([]string{"--workload", w.name, "--seed", "2", "--seconds", "1", "--trace", trace,
				"-workdir", filepath.Join(dir, "work"), "-spans", spans}, &stdout, &stderr)
			if code != 0 {
				t.Errorf("%s trace %s: exit %d\n%s", w.name, trace, code, stderr.String())
				continue
			}
			res := lastResult(t, stdout.String())
			defs := endToEnd
			if trace == "1" {
				defs = perLayer
				if fi, err := os.Stat(spans); err != nil || fi.Size() == 0 {
					t.Errorf("%s: no span file: %v", w.name, err)
				}
			}
			if !res.Correct || res.Attempted < 1 || len(res.Metrics) != len(defs) {
				t.Errorf("%s trace %s: result %+v", w.name, trace, res)
			}
			for _, d := range defs {
				if _, ok := res.Metrics[d.Name]; !ok {
					t.Errorf("%s trace %s: no metric %s", w.name, trace, d.Name)
				}
			}
		}
	}
	if entries, err := os.ReadDir(filepath.Join(dir, "work")); err != nil || len(entries) != 0 {
		t.Errorf("runs left files behind: %v %v", entries, err)
	}
}

// lastResult parses the last line of a run's standard output.
func lastResult(t *testing.T, stdout string) result {
	t.Helper()
	var last string
	sc := bufio.NewScanner(strings.NewReader(stdout))
	for sc.Scan() {
		last = sc.Text()
	}
	var res result
	dec := json.NewDecoder(strings.NewReader(last))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		t.Fatalf("last line %q: %v", last, err)
	}
	return res
}

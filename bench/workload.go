package main

// What every workload shares: the run environment, the failed-check
// list, and the reduction of one measured window to end-to-end metrics.

import (
	"fmt"
	"io"
	"strings"
	"time"
)

// workload is one named set of inputs.
type workload struct {
	name string
	why  string
	// headline is the end-to-end metric trace.overhead_pct compares.
	headline string
	// spansPerSecond sizes the traced window's span buffer.
	spansPerSecond int
	// setup builds what the workload measures, ready to serve, and
	// returns its teardown. run calls the same construction.
	setup func(e *env) (teardown func() error, err error)
	// run sets up, warms up, measures the untraced window (and, for a
	// traced run, a traced one after it), tears down and checks outputs.
	run func(e *env) (*outcome, error)
}

var workloads = []workload{
	{
		name:           "lockd-closed",
		why:            "closed-loop acquire/hold/release against a 3-node Dijkstra lockd ring: HTTP, gate, BSP barrier and commit dominate",
		headline:       "ops_per_s",
		spansPerSecond: 20000,
		setup:          lockdSetup,
		run:            lockdRun,
	},
	{
		name:           "sim-ssme-sd",
		why:            "synchronous SSME steps on an 8192-ring with 2 shard workers: the flat engine step and the worker pool, no network",
		headline:       "ops_per_s",
		spansPerSecond: 100000,
		setup:          simSetup,
		run:            simRun,
	},
	{
		name:           "repro-quick",
		why:            "the paper's experiments E1-E11 and E13 at -quick size: many small engine builds, campaigns, an exhaustive check and service storms",
		headline:       "op_us",
		spansPerSecond: 400,
		setup:          reproSetup,
		run:            reproRun,
	},
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// env is one run's environment.
type env struct {
	w      workload
	seed   int64
	window time.Duration
	// rec, when non-nil, asks for a traced window after the untraced
	// one and records its spans: set-up and checks record into it
	// throughout, operations only in the traced window.
	rec *recorder
	// dir holds the run's files; it is removed when the run ends.
	dir string
	log io.Writer
	// failures names every output check that failed.
	failures []string
}

// check records a failed output check unless ok.
func (e *env) check(ok bool, name, format string, args ...any) {
	if !ok {
		e.failures = append(e.failures, name+": "+fmt.Sprintf(format, args...))
	}
}

// window is what one measured window produced.
type window struct {
	e2e                metrics
	attempted, failed  int64
	proc               procDelta
	peakMB, retainedMB float64
}

// outcome is a run's measured windows: untraced always, traced when
// asked, plus the per-layer values of the traced window.
type outcome struct {
	untraced, traced window
	layers           metrics
}

// closeWindow ends a measured window begun at pm and reduces it to its
// end-to-end metrics: the throughput and the time of one op, as the
// workload estimated them. It also reads the memory, after the process
// counters, because the memory reading forces a collection.
func closeWindow(pm procMark, opsPerS, opUs float64, attempted, failed int64) (window, error) {
	w := window{attempted: attempted, failed: failed, proc: pm.since()}
	var err error
	if w.peakMB, err = statusMB("VmHWM"); err != nil {
		return w, err
	}
	if w.retainedMB, err = retainedMB(); err != nil {
		return w, err
	}
	w.e2e = metrics{"ops_per_s": opsPerS, "op_us": opUs}
	return w, nil
}

// procLayers are the process-level context metrics of a traced window.
func procLayers(m metrics, w window) {
	m["proc.cpu_util"] = w.proc.cpuUtil()
	m["proc.steal_pct"] = w.proc.stealPct()
	if done := w.attempted - w.failed; done > 0 {
		m["proc.cpu_ms_per_op"] = float64(w.proc.cpu) / 1e6 / float64(done)
	}
	m["proc.peak_rss_mb"] = w.peakMB
	m["proc.retained_mb"] = w.retainedMB
	m["go.gc_count"] = float64(w.proc.gcCount)
	m["go.gc_pause_ms"] = float64(w.proc.gcPause) / 1e6
	m["gen.ops_attempted"] = float64(w.attempted)
	m["gen.ops_failed"] = float64(w.failed)
}

// sliceSeconds is the slice length of medianRate.
const sliceSeconds = 1

// medianRate is a closed loop's throughput: the median, over the whole
// one-second slices of a window of length span, of the ops completed per
// second. done holds each op's completion time as an offset from the
// window's start. A median over slices keeps a burst of interference
// from another process on the host out of the result.
func medianRate(done []time.Duration, span time.Duration) float64 {
	n := int(span / (sliceSeconds * time.Second))
	if n < 1 {
		n = 1
	}
	rates := make([]float64, n)
	for _, d := range done {
		if k := int(d / (sliceSeconds * time.Second)); k >= 0 && k < n {
			rates[k] += 1.0 / sliceSeconds
		}
	}
	return median(rates)
}

// spanP returns the nearest-rank percentile p of the named spans'
// durations in µs (0 when there are none).
func spanP(spans []span, name string, p float64) float64 {
	d := durationsUs(spans, name)
	if len(d) == 0 {
		return 0
	}
	return percentile(d, p)
}

// firstMarker returns the first of markers that text contains, or "".
func firstMarker(text string, markers ...string) string {
	for _, m := range markers {
		if strings.Contains(text, m) {
			return m
		}
	}
	return ""
}

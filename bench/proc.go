package main

// Process-level measurements: peak resident memory, CPU time and GC
// activity, read from the kernel and the Go runtime at window boundaries.

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// statusMB reads one memory line of /proc/self/status — VmHWM, the peak
// resident set, or VmRSS, the current one — in MB (10⁶ bytes).
func statusMB(field string) (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), field+":")
		if !ok {
			continue
		}
		kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
		if err != nil {
			return 0, fmt.Errorf("parsing %s %q: %w", field, rest, err)
		}
		return kb * 1024 / 1e6, nil
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no %s line in /proc/self/status", field)
}

// retainedMB is the resident set after a full collection has returned
// every free page to the system: the memory the workload holds, without
// the garbage a collection cycle happened to leave at the moment of
// reading, which makes the peak jump by up to the GC's heap growth.
func retainedMB() (float64, error) {
	debug.FreeOSMemory()
	return statusMB("VmRSS")
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	// RUSAGE_SELF with a valid pointer cannot fail.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// stealTime is the CPU time the hypervisor has given other guests while
// this machine's CPUs wanted to run, summed over them: the steal column
// of /proc/stat, in clock ticks of 10 ms. It is 0 where the kernel does
// not report it.
func stealTime() time.Duration {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return 0
	}
	return time.Duration(ticks) * 10 * time.Millisecond
}

// procMark is a snapshot taken at a window boundary.
type procMark struct {
	wall       time.Time
	cpu, steal time.Duration
	gcCount    int64
	gcPause    time.Duration
}

func markProc() procMark {
	var gs debug.GCStats
	debug.ReadGCStats(&gs)
	return procMark{wall: time.Now(), cpu: cpuTime(), steal: stealTime(), gcCount: gs.NumGC, gcPause: gs.PauseTotal}
}

// procDelta is what happened between two marks.
type procDelta struct {
	wall, cpu, steal time.Duration
	gcCount          int64
	gcPause          time.Duration
}

func (m procMark) since() procDelta {
	now := markProc()
	return procDelta{
		wall:    now.wall.Sub(m.wall),
		cpu:     now.cpu - m.cpu,
		steal:   now.steal - m.steal,
		gcCount: now.gcCount - m.gcCount,
		gcPause: now.gcPause - m.gcPause,
	}
}

// cpuUtil is CPU time over wall time over the host's cores.
func (d procDelta) cpuUtil() float64 {
	if d.wall <= 0 {
		return 0
	}
	return d.cpu.Seconds() / d.wall.Seconds() / float64(runtime.NumCPU())
}

// stealPct is the share of the machine's CPU time the hypervisor gave
// to other guests, in percent.
func (d procDelta) stealPct() float64 {
	if d.wall <= 0 {
		return 0
	}
	return 100 * d.steal.Seconds() / d.wall.Seconds() / float64(runtime.NumCPU())
}

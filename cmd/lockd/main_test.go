package main

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func TestFlagValidation(t *testing.T) {
	t.Parallel()
	var out strings.Builder
	if err := run([]string{"-peers", "127.0.0.1:1"}, &out); err == nil || !strings.Contains(err.Error(), "-peers") {
		t.Errorf("single peer: %v", err)
	}
	if err := run([]string{"-peers", "a:1,b:2", "-node", "5"}, &out); err == nil || !strings.Contains(err.Error(), "-node") {
		t.Errorf("node out of range: %v", err)
	}
	if err := run([]string{"-replay", filepath.Join(t.TempDir(), "missing.jsonl")}, &out); err == nil {
		t.Error("replaying a missing journal must fail")
	}
}

// freePorts reserves count loopback addresses by binding and immediately
// releasing them — the standard ephemeral-port trick for driver tests.
func freePorts(t *testing.T, count int) []string {
	t.Helper()
	addrs := make([]string, count)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = ln.Addr().String()
		ln.Close()
	}
	return addrs
}

// TestThreeNodeRunAndReplay is the driver-level end-to-end: three run()
// invocations form a real TCP ring, commit a bounded number of rounds,
// and every node's journal replays bitwise through -replay.
func TestThreeNodeRunAndReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a 3-node loopback ring")
	}
	const nodes = 3
	peers := strings.Join(freePorts(t, nodes), ",")
	dir := t.TempDir()

	journals := make([]string, nodes)
	outs := make([]strings.Builder, nodes)
	errs := make([]error, nodes)
	var wg sync.WaitGroup
	for i := 0; i < nodes; i++ {
		journals[i] = filepath.Join(dir, fmt.Sprintf("lockd-%d.jsonl", i))
		args := []string{
			"-node", fmt.Sprint(i), "-peers", peers,
			"-protocol", "dijkstra", "-n", "12", "-k", "13", "-init", "random",
			"-seed", "7", "-rounds", "80", "-journal", journals[i],
		}
		if i == 0 {
			args = append(args, "-telemetry", "127.0.0.1:0")
		}
		wg.Add(1)
		go func(i int, args []string) {
			defer wg.Done()
			errs[i] = run(args, &outs[i])
		}(i, args)
	}
	wg.Wait()

	for i := 0; i < nodes; i++ {
		if errs[i] != nil {
			t.Fatalf("node %d: %v\n%s", i, errs[i], outs[i].String())
		}
		if !strings.Contains(outs[i].String(), "stopped at round") {
			t.Errorf("node %d output missing the stop summary:\n%s", i, outs[i].String())
		}
	}
	if !strings.Contains(outs[0].String(), "serving /metrics") {
		t.Errorf("node 0 with -telemetry did not report the exporter:\n%s", outs[0].String())
	}

	for i := 0; i < nodes; i++ {
		if fi, err := os.Stat(journals[i]); err != nil || fi.Size() == 0 {
			t.Fatalf("node %d journal: %v (size %v)", i, err, fi)
		}
		var out strings.Builder
		if err := run([]string{"-replay", journals[i]}, &out); err != nil {
			t.Fatalf("replaying node %d journal: %v", i, err)
		}
		if !strings.Contains(out.String(), "replayed bitwise") {
			t.Errorf("node %d replay summary: %s", i, out.String())
		}
	}
}

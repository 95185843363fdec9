package main

// The paper-reproduction workload: passes over the experiment registry
// at the size specbench -quick runs, each rendered as specbench renders
// it and checked against the first pass byte for byte.

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"time"

	"specstab/internal/experiments"
)

// reproWorkers is the experiment pool width: the host's two cores.
const reproWorkers = 2

// reproExperiments is the registry without E12, whose tables are
// wall-clock times and differ on every run by design.
func reproExperiments() []experiments.Experiment {
	var out []experiments.Experiment
	for _, x := range experiments.Registry() {
		if x.ID != "e12" {
			out = append(out, x)
		}
	}
	return out
}

// reproSetup runs the first, cold pass: a reproduction user pays it on
// every invocation, and caches filled on the first pass show here rather
// than vanish from the warm passes' timings.
func reproSetup(e *env) (func() error, error) {
	exps := reproExperiments()
	if len(exps) != 12 {
		return nil, fmt.Errorf("the registry has %d experiments besides E12, want 12", len(exps))
	}
	if _, _, err := reproPass(nil, exps, reproConfig(e.seed), 0); err != nil {
		return nil, err
	}
	return func() error { return nil }, nil
}

// reproConfig is a quick-size run on the host's two cores. At full size
// one pass takes about a second and its experiments 3 to 250 ms each;
// other guests on the host slow memory-bound work by up to a quarter for
// minutes at a time, longer than a window, and the fastest of the twenty
// or so runs each experiment gets in a window moved by a tenth between
// runs. At quick size a pass takes about 0.1 s, each experiment gets
// hundreds of runs in a window and the sum of the fastest moves by 1-2%.
func reproConfig(seed int64) experiments.RunConfig {
	return experiments.RunConfig{Quick: true, Seed: seed, Workers: reproWorkers}
}

// reproPass runs every experiment once. It returns the time spent inside
// each experiment's Run call and the rendered tables.
func reproPass(rec *recorder, exps []experiments.Experiment, cfg experiments.RunConfig, passNo int64) ([]time.Duration, []byte, error) {
	root := rec.begin("repro.pass", -1, passNo)
	defer rec.end(root)
	var buf bytes.Buffer
	per := make([]time.Duration, len(exps))
	for i, x := range exps {
		sp := rec.begin("experiments."+x.ID, root, passNo)
		t0 := time.Now()
		tables, err := x.Run(cfg)
		per[i] = time.Since(t0)
		rec.end(sp)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", x.ID, err)
		}
		fmt.Fprintf(&buf, "### %s — %s\n\n", x.ID, x.Title)
		for _, t := range tables {
			fmt.Fprintln(&buf, t.String())
		}
	}
	return per, buf.Bytes(), nil
}

func fnv64(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

func reproRun(e *env) (*outcome, error) {
	exps := reproExperiments()
	cfg := reproConfig(e.seed)
	// The warm-up pass's output is the reference every timed pass must
	// reproduce exactly.
	_, ref, err := reproPass(nil, exps, cfg, 0)
	if err != nil {
		return nil, err
	}
	refHash := fnv64(ref)
	marker := firstMarker(string(ref), "VIOLATED", "INCOMPLETE")
	e.check(marker == "", "repro.claims", "the output reports %s", marker)
	fmt.Fprintf(e.log, "bench: repro-quick: pass output %d bytes, fnv64a %016x\n", len(ref), refHash)

	out := &outcome{}
	passNo := int64(0)
	for phaseNo, rec := range []*recorder{nil, e.rec} {
		if phaseNo == 1 && rec == nil {
			break
		}
		// fastest holds each experiment's fastest Run in the window. Other
		// guests on the host and the collector slow a pass by up to half,
		// a different part of it each time; the sum of the fastest runs is
		// the pass as the program alone would run it.
		fastest := make([]time.Duration, len(exps))
		var passes, failed int64
		pm := markProc()
		deadline := time.Now().Add(e.window)
		for time.Now().Before(deadline) {
			passNo++
			per, text, err := reproPass(rec, exps, cfg, passNo)
			if err != nil {
				return nil, err
			}
			passes++
			if h := fnv64(text); h != refHash {
				failed++
				e.check(false, "repro.identical", "pass %d hashed %016x, the first %016x", passNo, h, refHash)
				continue
			}
			for i, d := range per {
				if fastest[i] == 0 || d < fastest[i] {
					fastest[i] = d
				}
			}
		}
		var pass time.Duration
		for _, d := range fastest {
			pass += d
		}
		passUs := float64(pass) / 1e3
		win, err := closeWindow(pm, 1e6/passUs, passUs, passes, failed)
		if err != nil {
			return nil, err
		}
		if phaseNo == 0 {
			out.untraced = win
			continue
		}
		out.traced = win
		spans := e.rec.recorded()
		l := metrics{}
		for _, x := range exps {
			l["experiments."+x.ID+"_ms"] = spanP(spans, "experiments."+x.ID, 0) / 1e3
		}
		procLayers(l, win)
		out.layers = l
	}
	return out, nil
}

package main

// bench compare: two sets of runs, A (the parent) and B (the change),
// judged metric by metric and workload by workload against the bounds
// in BENCHMARK.json.

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"text/tabwriter"
)

// benchFile is the part of BENCHMARK.json compare reads.
type benchFile struct {
	EndToEnd []metricDef `json:"end_to_end"`
}

// runSet is one side's untraced runs, grouped by workload.
type runSet struct {
	values            map[string]map[string][]float64 // workload → metric → values in run order
	attempted, failed map[string]int64
}

// readRuns collects the untraced record lines of a file of run output.
// Other lines — informational output, bare result lines, traced records
// — are skipped.
func readRuns(r io.Reader) (runSet, error) {
	rs := runSet{values: map[string]map[string][]float64{}, attempted: map[string]int64{}, failed: map[string]int64{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		var rec record
		if json.Unmarshal(sc.Bytes(), &rec) != nil || rec.Workload == "" || rec.Trace != 0 {
			continue
		}
		m := rs.values[rec.Workload]
		if m == nil {
			m = map[string][]float64{}
			rs.values[rec.Workload] = m
		}
		for name, v := range rec.Metrics {
			m[name] = append(m[name], v.Value)
		}
		rs.attempted[rec.Workload] += rec.Attempted
		rs.failed[rec.Workload] += rec.Failed
	}
	return rs, sc.Err()
}

func readRunFile(path string) (runSet, error) {
	f, err := os.Open(path)
	if err != nil {
		return runSet{}, err
	}
	defer f.Close()
	rs, err := readRuns(f)
	if err != nil {
		return rs, fmt.Errorf("%s: %w", path, err)
	}
	return rs, nil
}

// minPairs is the fewest run pairs a gain may rest on: with five, one
// metric in thirty-two of an unchanged program wins every pair by chance.
const minPairs = 10

// verdicts of judge.
const (
	improved   = "improved"
	ok         = "ok"
	regressed  = "regressed"
	unresolved = "unresolved"
)

// judge compares the change's runs b with the parent's runs a on one
// metric. A regression is a median worse by more than bound (a share of
// a's median). Where either side's interquartile spread exceeds the
// bound the result is unresolved, unless every run of b reads better
// than every run of a. A gain needs at least minPairs pairs (a[i], b[i]),
// b to win at least nine tenths of them, ties counting for neither, and
// the medians to differ by more than a's interquartile range.
func judge(a, b []float64, bound float64, higherIsBetter bool) string {
	if len(a) == 0 || len(b) == 0 {
		return unresolved
	}
	q1a, ma, q3a := quartiles(a)
	_, mb, _ := quartiles(b)
	better := func(x, y float64) bool { // x reads better than y
		if higherIsBetter {
			return x > y
		}
		return x < y
	}
	worse := (mb - ma) / math.Abs(ma)
	if higherIsBetter {
		worse = -worse
	}
	pairs, wins := min(len(a), len(b)), 0
	for i := 0; i < pairs; i++ {
		if better(b[i], a[i]) {
			wins++
		}
	}
	gain := pairs >= minPairs && better(mb, ma) && float64(wins) >= 0.9*float64(pairs) && math.Abs(mb-ma) > q3a-q1a
	allBetter := true
	for _, x := range b {
		for _, y := range a {
			if !better(x, y) {
				allBetter = false
			}
		}
	}
	switch {
	case spread(a) > bound || spread(b) > bound:
		if !allBetter {
			return unresolved
		}
		if gain {
			return improved
		}
		return ok
	case worse > bound:
		return regressed
	case gain:
		return improved
	default:
		return ok
	}
}

func runCompare(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("bench compare", flag.ContinueOnError)
	fs.SetOutput(out)
	boundsPath := fs.String("bounds", "BENCHMARK.json", "file whose end_to_end list gives each metric's bound")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("want two files of run output, A (parent) and B (change); got %d", fs.NArg())
	}
	raw, err := os.ReadFile(*boundsPath)
	if err != nil {
		return err
	}
	var bf benchFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return fmt.Errorf("%s: %w", *boundsPath, err)
	}
	a, err := readRunFile(fs.Arg(0))
	if err != nil {
		return err
	}
	b, err := readRunFile(fs.Arg(1))
	if err != nil {
		return err
	}
	return writeComparison(out, bf.EndToEnd, a, b)
}

func writeComparison(out io.Writer, defs []metricDef, a, b runSet) error {
	var names []string
	for w := range a.values {
		if _, ok := b.values[w]; ok {
			names = append(names, w)
		}
	}
	if len(names) == 0 {
		return fmt.Errorf("the two files share no workload")
	}
	sort.Strings(names)
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tA median [q1, q3] (n)\tB median [q1, q3] (n)\tchange\tbound\tverdict")
	counts := map[string]int{}
	for _, w := range names {
		for _, d := range defs {
			av, bv := a.values[w][d.Name], b.values[w][d.Name]
			v := judge(av, bv, d.Bound, d.Better == "higher")
			counts[v]++
			_, ma, _ := quartiles(av)
			_, mb, _ := quartiles(bv)
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%+.1f%%\t%.0f%%\t%s\n", w, d.Name, d.Unit, quartileText(av), quartileText(bv), 100*(mb-ma)/math.Abs(ma), 100*d.Bound, v)
		}
	}
	fmt.Fprintln(tw)
	fmt.Fprintln(tw, "workload\tA failed/attempted\tB failed/attempted")
	for _, w := range names {
		fmt.Fprintf(tw, "%s\t%s\t%s\n", w, failedText(a, w), failedText(b, w))
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	_, err := fmt.Fprintf(out, "\n%d improved, %d ok, %d regressed, %d unresolved\n", counts[improved], counts[ok], counts[regressed], counts[unresolved])
	return err
}

func quartileText(xs []float64) string {
	if len(xs) == 0 {
		return "—"
	}
	q1, med, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g, %.4g] (%d)", med, q1, q3, len(xs))
}

func failedText(rs runSet, w string) string {
	att, f := rs.attempted[w], rs.failed[w]
	share := 0.0
	if att > 0 {
		share = float64(f) / float64(att)
	}
	return fmt.Sprintf("%d/%d (%.4f)", f, att, share)
}

package main

// The span recorder of a traced run. Spans are taken only in this
// package, around the calls it makes into the repository's layers, so a
// traced run measures the layers from outside exactly as an untraced run
// does, plus two clock reads per span. Slots are preallocated and claimed
// with one atomic add; nothing is written until the run ends.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"
)

// span is one timed call. Start and end are nanoseconds since the
// recorder's origin; parent indexes the enclosing span (-1 for a root);
// req ties together the spans of one request or pass.
type span struct {
	name       string
	parent     int32
	req        int64
	start, end int64
}

// recorder holds a run's spans. A nil *recorder is the untraced run:
// every method is a no-op on it.
type recorder struct {
	origin  time.Time
	spans   []span
	next    atomic.Int64
	dropped atomic.Int64
}

// newRecorder preallocates room for capacity spans.
func newRecorder(capacity int) *recorder {
	return &recorder{origin: time.Now(), spans: make([]span, capacity)}
}

// begin opens a span now and returns its handle (-1 when untraced or
// full).
func (r *recorder) begin(name string, parent int32, req int64) int32 {
	if r == nil {
		return -1
	}
	return r.beginAt(name, parent, req, time.Now())
}

// beginAt opens a span that started at t, for waits that began before
// the code could record them (an open-loop request's due time).
func (r *recorder) beginAt(name string, parent int32, req int64, t time.Time) int32 {
	if r == nil {
		return -1
	}
	i := r.next.Add(1) - 1
	if i >= int64(len(r.spans)) {
		r.dropped.Add(1)
		return -1
	}
	r.spans[i] = span{name: name, parent: parent, req: req, start: int64(t.Sub(r.origin))}
	return int32(i)
}

// end closes the span begin returned.
func (r *recorder) end(i int32) {
	if r == nil || i < 0 {
		return
	}
	r.spans[i].end = int64(time.Since(r.origin))
}

// recorded returns the spans taken so far. Call it only once every
// goroutine that records has finished.
func (r *recorder) recorded() []span {
	if r == nil {
		return nil
	}
	n := r.next.Load()
	if n > int64(len(r.spans)) {
		n = int64(len(r.spans))
	}
	return r.spans[:n]
}

// durationsUs returns the durations of every span with the given name, in
// microseconds, sorted ascending.
func durationsUs(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.name == name && s.end >= s.start {
			out = append(out, float64(s.end-s.start)/1e3)
		}
	}
	sort.Float64s(out)
	return out
}

// selfTimes returns each span's self time in nanoseconds: its duration
// minus the part of its interval that its direct children cover. Children
// may overlap one another (concurrent calls under one parent); the
// covered part is the union of their intervals, so overlap is counted
// once.
func selfTimes(spans []span) []int64 {
	kids := make(map[int32][]int32)
	for i, s := range spans {
		if s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], int32(i))
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.end - s.start
		ch := kids[int32(i)]
		if len(ch) == 0 {
			continue
		}
		iv := make([][2]int64, 0, len(ch))
		for _, c := range ch {
			lo, hi := max(spans[c].start, s.start), min(spans[c].end, s.end)
			if hi > lo {
				iv = append(iv, [2]int64{lo, hi})
			}
		}
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		var covered, curLo, curHi int64
		open := false
		for _, v := range iv {
			switch {
			case !open:
				curLo, curHi, open = v[0], v[1], true
			case v[0] <= curHi:
				curHi = max(curHi, v[1])
			default:
				covered += curHi - curLo
				curLo, curHi = v[0], v[1]
			}
		}
		if open {
			covered += curHi - curLo
		}
		self[i] -= covered
	}
	return self
}

// spanSummary aggregates the spans of one name.
type spanSummary struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
}

// summarize groups spans by name, in order of first appearance.
func summarize(spans []span) []spanSummary {
	self := selfTimes(spans)
	idx := map[string]int{}
	var out []spanSummary
	for i, s := range spans {
		k, ok := idx[s.name]
		if !ok {
			k = len(out)
			idx[s.name] = k
			out = append(out, spanSummary{Name: s.name})
		}
		out[k].Count++
		out[k].TotalMs += float64(s.end-s.start) / 1e6
		out[k].SelfMs += float64(self[i]) / 1e6
	}
	return out
}

// writeSpans writes every span as one JSONL record, then one "self"
// record per span name, to path.
func writeSpans(path string, r *recorder) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := encodeSpans(w, r); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func encodeSpans(w io.Writer, r *recorder) error {
	type rec struct {
		Kind    string `json:"kind"`
		ID      int    `json:"id"`
		Name    string `json:"name"`
		Parent  int32  `json:"parent"`
		Req     int64  `json:"req"`
		StartNs int64  `json:"start_ns"`
		EndNs   int64  `json:"end_ns"`
	}
	enc := json.NewEncoder(w)
	spans := r.recorded()
	for i, s := range spans {
		if err := enc.Encode(rec{"span", i, s.name, s.parent, s.req, s.start, s.end}); err != nil {
			return err
		}
	}
	for _, s := range summarize(spans) {
		if err := enc.Encode(struct {
			Kind string `json:"kind"`
			spanSummary
		}{"self", s}); err != nil {
			return err
		}
	}
	if d := r.dropped.Load(); d > 0 {
		return enc.Encode(map[string]any{"kind": "dropped", "count": d})
	}
	return nil
}

// printSummary renders the per-name totals and self times as a table.
func printSummary(w io.Writer, spans []span) {
	fmt.Fprintf(w, "%-34s %9s %12s %12s\n", "span", "count", "total ms", "self ms")
	for _, s := range summarize(spans) {
		fmt.Fprintf(w, "%-34s %9d %12.3f %12.3f\n", s.Name, s.Count, s.TotalMs, s.SelfMs)
	}
}

// overheadPct is how much worse the traced window read than the untraced
// one on the headline metric, in percent (negative: it read better).
func overheadPct(untraced, traced float64, higherIsBetter bool) float64 {
	if untraced == 0 {
		return 0
	}
	if higherIsBetter {
		return 100 * (untraced - traced) / untraced
	}
	return 100 * (traced - untraced) / untraced
}

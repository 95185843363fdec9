// Package telemetry is the streaming observability layer: a deterministic
// metrics/event hub fed exclusively through the repository's existing
// observer surfaces — the engine's AddHook pipeline (WatchEngine), the
// service layer's read-only metric snapshots (WatchService) and the
// campaign scheduler's grid-order fold (Progress) — and drained by two
// sinks that live entirely off the deterministic state path: an HTTP
// exporter serving Prometheus text format on /metrics plus net/http/pprof
// (Serve, http.go) and a JSONL event stream (NewJSONL, jsonl.go).
//
// The determinism contract (DESIGN.md §12): collection is a pure read.
// Collectors copy scalars out of the structures they watch — never
// retaining engine-owned slices (the sim.Hook aliasing contract), never
// calling anything that mutates fingerprinted state (service window
// resets, non-incremental Enabled rescans) — and every series is stamped
// in logical time (engine steps, service ticks, campaign cells). Wall
// time enters exactly once, at the JSONL sink boundary, and goroutines
// exist exactly once, in the HTTP exporter; both files are allowlisted in
// internal/lint/policy.go. A run therefore fingerprints bitwise
// identically with telemetry attached or absent, across worker counts —
// pinned by this package's differential test.
//
// The Hub itself is a mutex-guarded last-value store: the deterministic
// side overwrites series in tick time, the exporter goroutine reads
// consistent copies via Gather. Nothing ever flows from the hub back into
// an execution.
package telemetry

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Kind is the Prometheus metric type of a series.
type Kind int

const (
	// Gauge is an instantaneous value (backlog, enabled vertices).
	Gauge Kind = iota
	// Counter is a cumulative, monotonically non-decreasing total
	// (steps, grants); sources publish their running totals directly.
	Counter
)

// String renders the kind as the Prometheus TYPE keyword.
func (k Kind) String() string {
	if k == Counter {
		return "counter"
	}
	return "gauge"
}

// Label is one series label; series identity is name plus the ordered
// label list.
type Label struct {
	Key, Value string
}

// Metric is one exported series with its last published value.
type Metric struct {
	Name   string
	Labels []Label
	Kind   Kind
	Help   string
	Value  float64

	key string // name + labels, the sort/identity key
}

// Field is one ordered key/value pair of an Event. Keeping fields as a
// slice (not a map) makes every rendered record byte-deterministic.
type Field struct {
	Key   string
	Value any
}

// Event is one structured record of the event stream, stamped in logical
// time by its producer; sinks may add a wall stamp at their boundary.
type Event struct {
	// Tick is the producer's logical time: engine step, service tick, or
	// campaign cells completed.
	Tick int64
	// Kind names the record type (e.g. "storm.recovery", "campaign.cell").
	Kind string
	// Fields carry the payload, rendered in order.
	Fields []Field
}

// EventSink receives every emitted event, synchronously and in emission
// order. Sinks must not touch deterministic state.
type EventSink interface {
	Event(Event)
}

// Hub is the metrics/event store. The deterministic producers write under
// the mutex; the exporter goroutine reads copies via Gather. A Hub never
// feeds anything back into the execution that writes it.
type Hub struct {
	mu     sync.Mutex
	tick   int64
	series []Metric
	index  map[string]int // series key → index into series
	sinks  []EventSink
	events int64
}

// New returns an empty hub.
func New() *Hub {
	return &Hub{index: map[string]int{}}
}

// AddSink attaches an event sink; every subsequent Emit reaches it.
func (h *Hub) AddSink(s EventSink) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.sinks = append(h.sinks, s)
}

// SetTick advances the hub's logical time stamp (monotone max, so
// multiple watchers of one run can all publish their own clocks).
func (h *Hub) SetTick(t int64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if t > h.tick {
		h.tick = t
	}
}

// SetGauge publishes the current value of a gauge series, creating the
// series on first use. The labels are copied.
func (h *Hub) SetGauge(name, help string, v float64, labels ...Label) {
	h.set(Gauge, name, help, v, labels)
}

// SetCounter publishes the running total of a counter series. Producers
// own the accumulation (engine counters, service totals); the hub only
// mirrors the latest cumulative value.
func (h *Hub) SetCounter(name, help string, v float64, labels ...Label) {
	h.set(Counter, name, help, v, labels)
}

func (h *Hub) set(kind Kind, name, help string, v float64, labels []Label) {
	key := seriesKey(name, labels)
	h.mu.Lock()
	defer h.mu.Unlock()
	if i, ok := h.index[key]; ok {
		h.series[i].Value = v
		return
	}
	h.index[key] = len(h.series)
	h.series = append(h.series, Metric{
		Name:   name,
		Labels: append([]Label(nil), labels...),
		Kind:   kind,
		Help:   help,
		Value:  v,
		key:    key,
	})
}

// Emit delivers e to every attached sink, in attachment order, and counts
// it. Emission is synchronous: by the time Emit returns the event is
// written, which keeps the stream ordered exactly as logical time ordered
// the producers.
func (h *Hub) Emit(e Event) {
	h.mu.Lock()
	h.events++
	if e.Tick > h.tick {
		h.tick = e.Tick
	}
	sinks := h.sinks
	h.mu.Unlock()
	for _, s := range sinks {
		s.Event(e)
	}
}

// Snapshot is one consistent copy of the hub's series, sorted by series
// key — the stable order /metrics renders.
type Snapshot struct {
	// Tick is the hub's logical time at gather.
	Tick int64
	// Events counts every Emit so far.
	Events int64
	// Series are the exported metrics in sorted order.
	Series []Metric
}

// Gather copies the hub's state for a reader (the HTTP exporter, a
// report). The copy is sorted; the hub's own storage stays append-ordered.
func (h *Hub) Gather() Snapshot {
	h.mu.Lock()
	out := make([]Metric, len(h.series))
	copy(out, h.series)
	snap := Snapshot{Tick: h.tick, Events: h.events, Series: out}
	h.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].key < out[j].key })
	return snap
}

// WritePrometheus renders the snapshot in the Prometheus text exposition
// format: one HELP/TYPE header per metric name, then each series with its
// labels, in sorted order.
func (s Snapshot) WritePrometheus(w io.Writer) error {
	prev := ""
	for _, m := range s.Series {
		if m.Name != prev {
			if m.Help != "" {
				if _, err := fmt.Fprintf(w, "# HELP %s %s\n", m.Name, m.Help); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", m.Name, m.Kind); err != nil {
				return err
			}
			prev = m.Name
		}
		if _, err := io.WriteString(w, m.Name+renderLabels(m.Labels)+" "+formatValue(m.Value)+"\n"); err != nil {
			return err
		}
	}
	return nil
}

// renderLabels renders {k="v",...} with Prometheus escaping ("" for none).
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

var labelEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`, `"`, `\"`)

func escapeLabel(v string) string { return labelEscaper.Replace(v) }

// formatValue renders a sample value in the shortest exact float form.
func formatValue(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// seriesKey builds the identity/sort key of a series. 0x1f separators
// keep "a{b=c}" distinct from "ab{=c}" without quoting.
func seriesKey(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	var b strings.Builder
	b.WriteString(name)
	for _, l := range labels {
		b.WriteByte(0x1f)
		b.WriteString(l.Key)
		b.WriteByte(0x1f)
		b.WriteString(l.Value)
	}
	return b.String()
}
